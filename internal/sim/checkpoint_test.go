package sim

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/chain"
	"repro/internal/des"
	"repro/internal/stats"
)

// FuzzResumeCheckpoint drives damaged checkpoint state through resume.
// It is structure-aware: each input picks one field of a decoded, valid
// checkpoint — a pending timer's tag, stamp or time, a scheduler's clock
// or counter, the reference engine's slot-event stamp, a histogram's
// bucket count, the frame series' length, the unit of one frame's or
// the shard's delay/recovery moments or one terminal's threshold on
// either side of the air interface — and
// overwrites it. Whatever the edit, RunShardedOpts must return metrics
// or an error, never panic: a panic on a shard goroutine re-raises on
// the caller's and would take a resuming job service down. (The bytes
// themselves are fuzzed by FuzzDecodeCheckpoint.)
func FuzzResumeCheckpoint(f *testing.F) {
	const slots, shards, every = 400, 2, 150
	// A retransmission timeout of 50 slots keeps ack timers pending
	// across checkpoint boundaries, so the scheduler edits have events
	// to act on.
	config := func(engine Engine) Config {
		cfg := partialConfig(engine)
		cfg.Faults.AckTimeout = 50 * SlotTicks
		return cfg
	}
	engines := []Engine{EngineCols, EngineDES}
	raws := make([][]byte, len(engines))
	for e, engine := range engines {
		if _, err := RunShardedOpts(context.Background(), config(engine), slots, shards, RunOpts{
			CheckpointEvery: every,
			CheckpointSink: func(cp *Checkpoint) {
				if cp.Slot != 2*every {
					return
				}
				data, err := EncodeCheckpoint(cp)
				if err != nil {
					f.Error(err)
				}
				raws[e] = data
			},
		}); err != nil {
			f.Fatal(err)
		}
		cp, err := DecodeCheckpoint(raws[e])
		if err != nil {
			f.Fatal(err)
		}
		if !hasPending(cp) {
			f.Fatalf("%s: the seed checkpoint holds no pending timer", engine)
		}
	}
	for field := uint8(0); field < 11; field++ {
		f.Add(false, field, uint8(0), uint16(0), uint64(1))
		f.Add(true, field, uint8(1), uint16(3), uint64(1)<<40)
	}
	f.Fuzz(func(t *testing.T, ref bool, field, shard uint8, idx uint16, val uint64) {
		e := 0
		if ref {
			e = 1
		}
		cp, err := DecodeCheckpoint(raws[e])
		if err != nil {
			t.Fatal(err)
		}
		sc := &cp.Shard[int(shard)%len(cp.Shard)]
		var scheds []*SchedCheckpoint
		if sc.DES != nil {
			scheds = append(scheds, &sc.DES.Sched)
		}
		for i := range sc.Scheds {
			scheds = append(scheds, &sc.Scheds[i])
		}
		sched := scheds[int(idx)%len(scheds)]
		// pending picks one queued timer anywhere in the shard.
		pending := func() *des.PendingEvent {
			var all []*des.PendingEvent
			for _, s := range scheds {
				for i := range s.Pending {
					all = append(all, &s.Pending[i])
				}
			}
			if len(all) == 0 {
				return nil
			}
			return all[int(idx)%len(all)]
		}
		resize := func(n int) int { return int(val % uint64(n+3)) }
		switch field % 11 {
		case 0:
			if p := pending(); p != nil {
				p.Tag = val
			}
		case 1:
			if p := pending(); p != nil {
				p.Seq = val
			}
		case 2:
			if p := pending(); p != nil {
				p.At = des.Time(val)
			}
		case 3:
			sched.Now = val
		case 4:
			sched.Seq = val
		case 5:
			if sc.DES != nil {
				sc.DES.SlotEventSeq = val
			}
		case 6:
			h := sc.Metrics.DelayHist
			if idx%2 == 1 {
				h = sc.Metrics.RecoveryHist
			}
			counts := make([]int64, resize(len(h.Counts)))
			copy(counts, h.Counts)
			h.Counts = counts
		case 7:
			n := resize(len(sc.Snapshots))
			for len(sc.Snapshots) < n {
				sc.Snapshots = append(sc.Snapshots, sc.Snapshots[len(sc.Snapshots)-1])
			}
			sc.Snapshots = sc.Snapshots[:n]
		case 8, 9:
			fr := &sc.Snapshots[int(idx)%len(sc.Snapshots)]
			m := &fr.Delay
			if field%11 == 9 {
				m = &fr.Recovery
			}
			if idx%2 == 1 {
				m = &sc.Metrics.Recovery
			}
			*m = stats.NewMoments(1 + int64(val%(2*SlotTicks)))
		case 10:
			d := &sc.Terms[int(idx)%len(sc.Terms)].Threshold
			if idx%2 == 1 {
				d = &sc.HLR[int(idx)%len(sc.HLR)].Threshold
			}
			*d = int(int64(val))
		}
		m, err := RunShardedOpts(context.Background(), config(engines[e]), slots, shards, RunOpts{Resume: cp})
		if err == nil && m == nil {
			t.Fatal("resume returned neither metrics nor an error")
		}
	})
}

// TestCheckpointFrameIdentity: a delivered checkpoint's encoding, built
// from the sections its shards encoded from their live state, equals
// its streamed frame (FrameCheckpoint) and the encoding of its decoded
// fields, which encodes every field afresh (putShardCheckpoint). For
// both engines, 1, 2, 3 and 7 shards, with and without faults and
// telemetry. The delivered checkpoints are encoded again after the run
// has finished, so a section that shared a buffer with the live run,
// which kept changing it, would show as a difference.
func TestCheckpointFrameIdentity(t *testing.T) {
	const slots, every = 400, 97
	for _, engine := range []Engine{EngineCols, EngineDES} {
		for _, shards := range []int{1, 2, 3, 7} {
			for _, faults := range []bool{false, true} {
				for _, telemetry := range []bool{false, true} {
					cfg := partialConfig(engine)
					if !faults {
						cfg.Faults = FaultPlan{}
					}
					if !telemetry {
						cfg.Telemetry.SnapshotEvery = 0
					}
					var cps []*Checkpoint
					var frames [][]byte
					if _, err := RunShardedOpts(context.Background(), cfg, slots, shards, RunOpts{
						CheckpointEvery: every,
						CheckpointSink: func(cp *Checkpoint) {
							data, _ := EncodeCheckpoint(cp)
							var streamed bytes.Buffer
							if n, err := FrameCheckpoint(cp).WriteTo(&streamed); err != nil || n != int64(len(data)) ||
								!bytes.Equal(streamed.Bytes(), data) {
								t.Errorf("slot %d: streamed frame (%d bytes, %v) differs from EncodeCheckpoint", cp.Slot, n, err)
							}
							cps = append(cps, cp)
							frames = append(frames, data)
						},
					}); err != nil {
						t.Fatal(err)
					}
					if len(cps) != (slots-1)/every {
						t.Fatalf("%s/%d shards: %d checkpoints delivered", engine, shards, len(cps))
					}
					for i, cp := range cps {
						if cp.Shard != nil || len(cp.sections) != shards {
							t.Fatalf("%s/%d shards: slot %d delivered %d field shards and %d sections",
								engine, shards, cp.Slot, len(cp.Shard), len(cp.sections))
						}
						decoded, err := DecodeCheckpoint(frames[i])
						if err != nil {
							t.Fatal(err)
						}
						fresh, _ := EncodeCheckpoint(decoded)
						again, _ := EncodeCheckpoint(cp)
						if !bytes.Equal(frames[i], fresh) || !bytes.Equal(frames[i], again) {
							t.Errorf("%s/%d shards/faults %v/telemetry %v: slot-%d frame differs from a fresh encoding (%v) or from itself after the run (%v)",
								engine, shards, faults, telemetry, cp.Slot, !bytes.Equal(frames[i], fresh), !bytes.Equal(frames[i], again))
						}
					}
				}
			}
		}
	}
}

// hasPending reports whether any scheduler in cp holds a queued event.
func hasPending(cp *Checkpoint) bool {
	for _, sc := range cp.Shard {
		if sc.DES != nil && len(sc.DES.Sched.Pending) > 0 {
			return true
		}
		for _, s := range sc.Scheds {
			if len(s.Pending) > 0 {
				return true
			}
		}
	}
	return false
}

// TestCheckpointResumeFrames is the byte oracle of the sections shards
// encode from their live state: a run resumed from any of its
// checkpoints, at the same cadence, must deliver every later checkpoint
// byte for byte as the uninterrupted run did. Each section records the
// whole shard state, so a field the encoder dropped or misplaced would
// either fail to decode or make the resumed run write different
// sections from then on. For both engines, 1, 3 and 7 shards, faults
// on (with a retransmission timeout long enough that ack timers are
// pending at the boundaries) and off, telemetry on and off, and the
// distance, movement and timer schemes.
func TestCheckpointResumeFrames(t *testing.T) {
	const slots, every = 400, 61
	run := func(t *testing.T, cfg Config, shards int, resume *Checkpoint) map[int64][]byte {
		t.Helper()
		frames := make(map[int64][]byte)
		if _, err := RunShardedOpts(context.Background(), cfg, slots, shards, RunOpts{
			Resume:          resume,
			CheckpointEvery: every,
			CheckpointSink: func(cp *Checkpoint) {
				frames[cp.Slot], _ = EncodeCheckpoint(cp)
			},
		}); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	schemes := []UpdateScheme{DistanceScheme{}, MovementScheme{Count: 3}, TimerScheme{Every: 40}}
	for _, engine := range []Engine{EngineCols, EngineDES} {
		for _, shards := range []int{1, 3, 7} {
			for _, faults := range []bool{false, true} {
				for _, telemetry := range []bool{false, true} {
					for _, scheme := range schemes {
						name := fmt.Sprintf("%s/%dshards/faults=%v/telemetry=%v/%s",
							engine, shards, faults, telemetry, scheme.Name())
						t.Run(name, func(t *testing.T) {
							cfg := partialConfig(engine)
							cfg.Scheme = scheme
							cfg.Dynamic = scheme.Name() == "distance"
							cfg.Faults.AckTimeout = 50 * SlotTicks
							if !faults {
								cfg.Faults = FaultPlan{}
							}
							if !telemetry {
								cfg.Telemetry.SnapshotEvery = 0
							}
							want := run(t, cfg, shards, nil)
							if len(want) != (slots-1)/every {
								t.Fatalf("%d checkpoints delivered", len(want))
							}
							pending := false
							for slot, data := range want {
								cp, err := DecodeCheckpoint(data)
								if err != nil {
									t.Fatal(err)
								}
								pending = pending || hasPending(cp)
								got := run(t, cfg, shards, cp)
								if len(got) != int((slots-1)/every-slot/every) {
									t.Errorf("resumed from slot %d: %d checkpoints delivered", slot, len(got))
								}
								for s, frame := range got {
									if !bytes.Equal(frame, want[s]) {
										t.Errorf("resumed from slot %d: slot-%d checkpoint differs from the uninterrupted run's", slot, s)
									}
								}
							}
							if faults && !pending {
								t.Error("no checkpoint holds a pending ack timer")
							}
						})
					}
				}
			}
		}
	}
}

// TestCheckpointBoundaryAllocs bounds what a checkpoint boundary
// allocates beyond the sections it delivers: a 20k-terminal columnar
// run checkpointed every 64 slots may allocate at most 1.5 times its
// delivered section bytes more than the same run unobserved. A shard
// that copied its state before encoding it would allocate that copy on
// top, several times the section's size.
func TestCheckpointBoundaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const slots, shards, every = 256, 2, 64
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 3, 3)
	cfg.Terminals = 20_000
	var sections int
	sink := func(cp *Checkpoint) {
		for _, sec := range cp.sections {
			sections += len(sec)
		}
	}
	run := func(opts RunOpts) {
		if _, err := RunShardedOpts(context.Background(), cfg, slots, shards, opts); err != nil {
			t.Fatal(err)
		}
	}
	run(RunOpts{CheckpointEvery: every, CheckpointSink: sink}) // warm up
	plain := allocated(func() { run(RunOpts{}) })
	sections = 0
	observed := allocated(func() { run(RunOpts{CheckpointEvery: every, CheckpointSink: sink}) })
	if sections == 0 {
		t.Fatal("no section delivered")
	}
	extra := int64(observed) - int64(plain)
	t.Logf("checkpointed run allocated %d bytes more than a plain one, for %d section bytes (%.2fx)",
		extra, sections, float64(extra)/float64(sections))
	if limit := int64(sections) * 3 / 2; extra > limit {
		t.Errorf("checkpoint boundaries allocated %d bytes beyond a plain run, over 1.5x the %d section bytes delivered",
			extra, sections)
	}
}
