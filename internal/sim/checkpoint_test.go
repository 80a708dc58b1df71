package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"slices"
	"testing"

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
// from the sections its shards encoded at capture, equals the encoding
// of the same checkpoint with no sections, which encodes every field
// afresh, and so does its streamed frame (FrameCheckpoint). For both
// engines, 1, 2, 3 and 7 shards, with and without faults and telemetry.
// The fresh encodings are taken after the run has finished, so a capture
// that shared state with the live run, which kept changing it, would
// show as a difference.
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
						bare := *cp
						bare.Shard = slices.Clone(cp.Shard)
						for s := range bare.Shard {
							if bare.Shard[s].encoded == nil {
								t.Fatalf("%s/%d shards: shard %d delivered without its section", engine, shards, s)
							}
							bare.Shard[s].encoded = nil
						}
						want, _ := EncodeCheckpoint(&bare)
						if !bytes.Equal(frames[i], want) {
							t.Errorf("%s/%d shards/faults %v/telemetry %v: slot-%d frame differs from a fresh encoding",
								engine, shards, faults, telemetry, cp.Slot)
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

// TestDecodeCheckpointV1RejectsInexactMoments: a PCNCKPT1 file whose
// per-terminal Welford state cannot come from integer samples fails to
// decode with ErrInexactLegacyMoments rather than resuming with made-up
// sums. Gob matches fields by name, so a document holding just the
// legacy per-terminal state stands in for a whole old checkpoint.
func TestDecodeCheckpointV1RejectsInexactMoments(t *testing.T) {
	type term struct{ Delay, Recovery stats.AccumulatorState }
	type metrics struct{ PerTerminal []term }
	type shard struct{ Metrics metrics }
	legacy := func(delay stats.AccumulatorState) []byte {
		var buf bytes.Buffer
		doc := struct{ Shard []shard }{[]shard{{metrics{[]term{{Delay: delay}}}}}}
		if err := gob.NewEncoder(&buf).Encode(doc); err != nil {
			t.Fatal(err)
		}
		return framed(ckptMagicV1, buf.Bytes())
	}
	// Two samples of 1 and 2 cycles: Σx = 3, Σx² = 5.
	cp, err := DecodeCheckpoint(legacy(stats.AccumulatorState{N: 2, Mean: 1.5, M2: 0.5, Min: 1, Max: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Moments{}
	want.Add(1)
	want.Add(2)
	if got := cp.Shard[0].Metrics.Delay; got != want || cp.Shard[0].Metrics.Recovery.Unit() != SlotTicks {
		t.Errorf("converted delay %+v (recovery unit %d), want %+v", got, cp.Shard[0].Metrics.Recovery.Unit(), want)
	}
	// A mean of 1.25 over two samples is no pair of integers.
	if _, err := DecodeCheckpoint(legacy(stats.AccumulatorState{N: 2, Mean: 1.25, M2: 0.125, Min: 1, Max: 1.5})); !errors.Is(err, ErrInexactLegacyMoments) {
		t.Errorf("got %v, want ErrInexactLegacyMoments", err)
	}
}
