package locman

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/stats"
)

// checkpointConfig is a deliberately hostile run for checkpoint/resume:
// dynamic thresholds with heterogeneous per-terminal parameters, every
// fault knob on (so retransmission timers are routinely pending across
// slot boundaries — the one event species a checkpoint must serialize),
// and a telemetry cadence that divides neither the run length nor the
// checkpoint cadence, so frame and checkpoint boundaries interleave
// mid-batch for the columnar engine.
func checkpointConfig(engine Engine) NetworkConfig {
	return NetworkConfig{
		Config: Config{
			Model:      TwoDimensional,
			MoveProb:   0.2,
			CallProb:   0.04,
			UpdateCost: 50,
			PollCost:   1,
			MaxDelay:   3,
		},
		Terminals: 9,
		Threshold: 2,
		Dynamic:   true,
		Faults: FaultPlan{
			UpdateLoss:    0.25,
			PollLoss:      0.15,
			ReplyLoss:     0.1,
			UpdateRetries: 2,
			PageRetries:   3,
			Outages:       []Outage{{Start: 300, End: 450}, {Start: 1_200, End: 1_350}},
		},
		ReoptimizeEvery: 500,
		PerTerminal: func(i int) (float64, float64) {
			return 0.08 + 0.05*float64(i%4), 0.01 + 0.015*float64(i%3)
		},
		SnapshotEvery: 400,
		Seed:          11,
		Engine:        engine,
	}
}

const checkpointSlots = 1_500

// TestCheckpointResumeEquivalence is the crash-recovery analogue of
// TestEngineEquivalence and the merge gate for any checkpoint change:
// for every engine at every shard count in {1, 3, 7}, a run that is
// checkpointed at an odd interior cadence, serialized, deserialized and
// resumed from each emitted checkpoint must produce a Report whose JSON
// document is byte-identical to the uninterrupted run's — and the
// observed (checkpoint-emitting) run itself must be byte-identical too,
// proving capture never perturbs the simulation. Run under -race in CI.
func TestCheckpointResumeEquivalence(t *testing.T) {
	// 611 divides neither the 400-slot telemetry cadence, the 500-slot
	// reoptimization period, nor the 1500-slot run: checkpoints land at
	// 611 and 1222, both mid-batch from every other boundary's view.
	const every = 611
	engines := []Engine{EngineDES, EngineCols}
	shardCounts := []int{1, 3, 7}

	report := func(t *testing.T, m *NetworkMetrics) []byte {
		t.Helper()
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, engine := range engines {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/%dshards", engine, shards), func(t *testing.T) {
				cfg := checkpointConfig(engine)
				clean, err := SimulateNetworkSharded(cfg, checkpointSlots, shards)
				if err != nil {
					t.Fatal(err)
				}
				want := report(t, clean)

				var cps []*Checkpoint
				observed, err := SimulateNetworkCheckpointed(context.Background(),
					cfg, checkpointSlots, shards, every, func(cp *Checkpoint) {
						// The sink must not retain cp; round-trip it
						// through the wire format instead, which also
						// proves every emitted checkpoint serializes.
						data, err := EncodeCheckpoint(cp)
						if err != nil {
							t.Error(err)
							return
						}
						decoded, err := DecodeCheckpoint(data)
						if err != nil {
							t.Error(err)
							return
						}
						cps = append(cps, decoded)
					})
				if err != nil {
					t.Fatal(err)
				}
				if got := report(t, observed); !bytes.Equal(got, want) {
					t.Errorf("checkpoint capture perturbed the run:\n%s\nreference:\n%s", got, want)
				}
				if len(cps) != 2 || cps[0].Slot != every || cps[1].Slot != 2*every {
					t.Fatalf("expected checkpoints at slots %d and %d, got %d checkpoint(s)",
						every, 2*every, len(cps))
				}

				for _, cp := range cps {
					resumed, err := ResumeNetworkCheckpointed(context.Background(),
						cfg, checkpointSlots, shards, cp, 0, nil)
					if err != nil {
						t.Fatalf("resuming from slot %d: %v", cp.Slot, err)
					}
					if got := report(t, resumed); !bytes.Equal(got, want) {
						t.Errorf("resume from slot %d diverged from the uninterrupted run:\n%s\nreference:\n%s",
							cp.Slot, got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointCrossEngineResume checks the engine contract of
// checkpoint files. The legacy fixtures are 3-shard, slot-611
// checkpoints of checkpointConfig written by older binaries: the
// PCNCKPT1 pair by the fast and the columnar engine, the PCNCKPT2 pair
// by the columnar and the reference engine. Their gob formats are
// retired, so each must be refused by name, which a job service answers
// with a clean run. Each engine's checkpoint representation is its own,
// so resuming across engines must fail rather than silently diverge:
// the current-format testdata/v3-cols.ckpt must be refused by the
// reference engine, and by the columnar engine too once it carries
// tag 2 (the columnar engine's tag before the fast engine was retired),
// and an in-memory reference-engine checkpoint by the columnar engine.
func TestCheckpointCrossEngineResume(t *testing.T) {
	const every = 611
	const shards = 3
	for _, file := range []string{"legacy-fast.ckpt", "legacy-cols.ckpt", "legacy-v2-cols.ckpt", "legacy-v2-des.ckpt"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(data); !errors.Is(err, sim.ErrRetiredCheckpointFormat) {
				t.Errorf("got %v, want sim.ErrRetiredCheckpointFormat", err)
			}
		})
	}

	t.Run("v3-cols.ckpt", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "v3-cols.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeNetworkCheckpointed(context.Background(),
			checkpointConfig(EngineDES), checkpointSlots, cp.Shards, cp, 0, nil); err == nil ||
			!strings.Contains(err.Error(), "cols-engine checkpoint cannot resume on engine des") {
			t.Errorf("reference-engine resume of a columnar checkpoint: got %v", err)
		}
		cp.Engine = 2
		retagged, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if cp, err = DecodeCheckpoint(retagged); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeNetworkCheckpointed(context.Background(),
			checkpointConfig(EngineCols), checkpointSlots, cp.Shards, cp, 0, nil); err == nil ||
			!strings.Contains(err.Error(), "Engine(2)-engine checkpoint cannot resume on engine cols") {
			t.Errorf("columnar resume of a tag-2 checkpoint: got %v", err)
		}
	})

	var desCP *Checkpoint
	if _, err := SimulateNetworkCheckpointed(context.Background(),
		checkpointConfig(EngineDES), checkpointSlots, shards, every, func(c *Checkpoint) {
			if desCP == nil {
				desCP = c
			}
		}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		checkpointConfig(EngineCols), checkpointSlots, shards, desCP, 0, nil); err == nil {
		t.Error("resuming a reference-engine checkpoint on the columnar engine should fail")
	}
}

// TestCheckpointV3Golden pins the PCNCKPT3 format: testdata/v3-cols.ckpt
// is checkpointConfig's columnar run over 2 shards at slot 611 (faults
// on, one telemetry frame captured), as the whole-frame encoder wrote it
// before shards encoded their own sections. The same boundary must
// encode to those bytes exactly, and the file must resume to the
// uninterrupted run's Report.
func TestCheckpointV3Golden(t *testing.T) {
	const every, shards = 611, 2
	cfg := checkpointConfig(EngineCols)
	golden, err := os.ReadFile(filepath.Join("testdata", "v3-cols.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var encErr error
	if _, err := SimulateNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, shards, every, func(cp *Checkpoint) {
			if cp.Slot == every {
				got, encErr = EncodeCheckpoint(cp)
			}
		}); err != nil {
		t.Fatal(err)
	}
	if encErr != nil {
		t.Fatal(encErr)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("slot-%d checkpoint encodes to %d bytes that differ from the %d-byte golden",
			every, len(got), len(golden))
	}

	cp, err := DecodeCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Shard[0].Snapshots) == 0 {
		t.Fatal("golden holds no telemetry frame")
	}
	report := func(m *NetworkMetrics) []byte {
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	clean, err := SimulateNetworkSharded(cfg, checkpointSlots, shards)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeNetworkCheckpointed(context.Background(), cfg, checkpointSlots, shards, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report(resumed), report(clean)) {
		t.Error("resume from the golden diverged from the uninterrupted run")
	}
}

// TestCheckpointResumeValidation rejects checkpoints that do not
// describe the offered run: wrong shard count, wrong seed, corrupted
// bytes. shards == 0 adopts the checkpoint's own partition.
func TestCheckpointResumeValidation(t *testing.T) {
	const every = 611
	cfg := checkpointConfig(EngineCols)
	var cp *Checkpoint
	var raw []byte
	if _, err := SimulateNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 3, every, func(c *Checkpoint) {
			if c.Slot == every {
				data, err := EncodeCheckpoint(c)
				if err != nil {
					t.Error(err)
					return
				}
				raw = data
				cp, err = DecodeCheckpoint(data)
				if err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 7, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched shard count should fail")
	}
	badSeed := cfg
	badSeed.Seed = 99
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		badSeed, checkpointSlots, 3, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched seed should fail")
	}
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots-1, 3, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched run length should fail")
	}

	// shards == 0 adopts the checkpoint's partition instead of guessing
	// from GOMAXPROCS.
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 0, cp, 0, nil); err != nil {
		t.Errorf("resume with shards 0 should adopt the checkpoint's 3: %v", err)
	}

	// Corruption anywhere in the payload must be caught by the trailer.
	raw[len(raw)/2] ^= 0x40
	if _, err := DecodeCheckpoint(raw); err == nil {
		t.Error("decoding a corrupted checkpoint should fail")
	}
	if _, err := DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Error("decoding garbage should fail")
	}
}

// TestCheckpointResumeRejectsHostileState: a checkpoint that decodes
// cleanly but holds state no engine could have written — a damaged disk,
// a hand-edited file, a bug in an older binary — must fail resume with an
// error, never panic. A panic on a shard goroutine re-raises on the
// caller's, so in the job service it would take the daemon down, and
// journal replay would reload the same file on restart; an error makes
// the service fall back to a clean run instead.
func TestCheckpointResumeRejectsHostileState(t *testing.T) {
	const every, shards = 97, 3
	// sched finds a checkpointed scheduler that has scheduled something —
	// the reference engine's per-shard scheduler or one of the columnar
	// engine's per-terminal ones — to plant pending timers in. (Timers
	// fire within the slot that armed them under the default ack
	// timeout, so a checkpoint holds none of its own.)
	sched := func(cp *Checkpoint) *sim.SchedCheckpoint {
		for s := range cp.Shard {
			sc := &cp.Shard[s]
			if sc.DES != nil {
				return &sc.DES.Sched
			}
			for i := range sc.Scheds {
				if sc.Scheds[i].Seq > 0 && sc.Scheds[i].Now > 0 {
					return &sc.Scheds[i]
				}
			}
		}
		return nil
	}
	// plant queues the ack timer event(ps) on sched(cp). Tag 1<<32|2 is
	// terminal 1's update 2; the initial registration consumed seq 1.
	plant := func(cp *Checkpoint, event func(ps *sim.SchedCheckpoint) des.PendingEvent) {
		ps := sched(cp)
		ps.Pending = append(ps.Pending, event(ps))
	}
	cases := []struct {
		name    string
		desOnly bool
		break_  func(cp *Checkpoint)
	}{
		{"timer of a terminal outside the shard", false, func(cp *Checkpoint) {
			plant(cp, func(ps *sim.SchedCheckpoint) des.PendingEvent {
				return des.PendingEvent{At: des.Time(ps.Now), Tag: 1<<50 | 2}
			})
		}},
		{"timer stamped at the counter", false, func(cp *Checkpoint) {
			plant(cp, func(ps *sim.SchedCheckpoint) des.PendingEvent {
				return des.PendingEvent{At: des.Time(ps.Now), Seq: ps.Seq, Tag: 1<<32 | 2}
			})
		}},
		{"timer due before the clock", false, func(cp *Checkpoint) {
			plant(cp, func(ps *sim.SchedCheckpoint) des.PendingEvent {
				return des.PendingEvent{At: des.Time(ps.Now - 1), Tag: 1<<32 | 2}
			})
		}},
		{"missing delay histogram", false, func(cp *Checkpoint) { cp.Shard[0].Metrics.DelayHist = nil }},
		{"3-bucket delay histogram", false, func(cp *Checkpoint) {
			h := cp.Shard[1].Metrics.DelayHist
			h.Counts = h.Counts[:3]
		}},
		{"recovery histogram width", false, func(cp *Checkpoint) { cp.Shard[2].Metrics.RecoveryHist.Width = 2 }},
		{"dropped telemetry frame", false, func(cp *Checkpoint) {
			cp.Shard[0].Snapshots = cp.Shard[0].Snapshots[:len(cp.Shard[0].Snapshots)-1]
		}},
		{"misaligned telemetry frame", false, func(cp *Checkpoint) { cp.Shard[1].Snapshots[0].Slot++ }},
		{"telemetry frame recovery in slots", false, func(cp *Checkpoint) {
			cp.Shard[2].Snapshots[0].Recovery = stats.NewMoments(1)
		}},
		{"delay moments in ticks", false, func(cp *Checkpoint) {
			cp.Shard[0].Metrics.Delay = stats.NewMoments(sim.SlotTicks)
		}},
		{"slot event stamped at the counter", true, func(cp *Checkpoint) {
			ds := cp.Shard[1].DES
			ds.SlotEventSeq = ds.Sched.Seq
		}},
		{"clock past the boundary", true, func(cp *Checkpoint) {
			cp.Shard[2].DES.Sched.Now = uint64(cp.Slot+1) * sim.SlotTicks
		}},
	}
	for _, engine := range []Engine{EngineCols, EngineDES} {
		cfg := checkpointConfig(engine)
		// Keep the first checkpoint past a telemetry frame, encoded:
		// every case mutates a fresh decode.
		var raw []byte
		if _, err := SimulateNetworkCheckpointed(context.Background(),
			cfg, checkpointSlots, shards, every, func(cp *Checkpoint) {
				if raw != nil || cp.Slot < cfg.SnapshotEvery {
					return
				}
				data, err := EncodeCheckpoint(cp)
				if err != nil {
					t.Error(err)
					return
				}
				// A delivered checkpoint carries encoded sections; its
				// schedulers are read from a decode.
				if decoded, err := DecodeCheckpoint(data); err != nil || sched(decoded) == nil {
					return
				}
				raw = data
			}); err != nil {
			t.Fatal(err)
		}
		if raw == nil {
			t.Fatalf("%s: no checkpoint past slot %d has a used scheduler", engine, cfg.SnapshotEvery)
		}
		for _, tc := range cases {
			if tc.desOnly && engine != EngineDES {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", engine, tc.name), func(t *testing.T) {
				cp, err := DecodeCheckpoint(raw)
				if err != nil {
					t.Fatal(err)
				}
				tc.break_(cp)
				defer func() {
					if v := recover(); v != nil {
						t.Errorf("resume panicked: %v", v)
					}
				}()
				if _, err := ResumeNetworkCheckpointed(context.Background(),
					cfg, checkpointSlots, shards, cp, 0, nil); err == nil {
					t.Error("hostile checkpoint resumed")
				}
			})
		}
	}
}
