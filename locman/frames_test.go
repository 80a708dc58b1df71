package locman

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// lossyPlan is a fault plan whose acked updates retransmit after
// ackTimeout ticks (0: the default).
func lossyPlan(ackTimeout int64) FaultPlan {
	return FaultPlan{
		UpdateLoss:    0.3,
		PollLoss:      0.15,
		ReplyLoss:     0.1,
		UpdateRetries: 2,
		AckTimeout:    ackTimeout,
		PageRetries:   3,
		Outages:       []Outage{{Start: 300, End: 450}},
	}
}

// TestColsFramesAcrossCadences pins the columnar engine's telemetry
// intervals: its slot batches are cut by checkpoints, the run end and an
// interval cap, never by the snapshot cadence, so each frame is folded
// from per-interval counts rather than read at a batch edge. Over a grid
// of cadences — every slot, odd divisors, the run length and past it —
// the cols report (frames included) must equal the single-shard DES
// reference byte for byte. The lossy plans ack updates with a short and
// a long first timeout, so retransmissions fire both in the update's own
// slot and intervals after it, some after the last slot. The lossy runs
// of a subset then checkpoint every 48 slots, which cuts intervals
// mid-way, and every resume must reproduce the uninterrupted report.
func TestColsFramesAcrossCadences(t *testing.T) {
	const slots = 1_500
	cadences := []int64{1, 7, 16, 64, 400, 1_499, 1_500, 4_000}
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"clean", FaultPlan{}},
		// The default 16-tick timeout retransmits inside the update's
		// own slot.
		{"lossy", lossyPlan(0)},
		// A 40.5-slot timeout retransmits intervals later, and timers
		// armed near the end drain after the last slot.
		{"lossy-late", lossyPlan(81 * sim.SlotTicks / 2)},
	}
	schemes := []struct {
		name   string
		scheme UpdateScheme
	}{
		{"distance", nil},
		{"timer", TimerUpdate(37)},
	}
	// resumed names the cadences whose lossy runs are also checkpointed
	// and resumed: 48 divides none of them, so every resume starts
	// inside an interval.
	resumed := map[int64]bool{7: true, 64: true, 400: true}

	report := func(t *testing.T, m *NetworkMetrics) []byte {
		t.Helper()
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, every := range cadences {
		for _, p := range plans {
			for _, sch := range schemes {
				t.Run(fmt.Sprintf("every%d/%s/%s", every, p.name, sch.name), func(t *testing.T) {
					cfg := NetworkConfig{
						Config: Config{
							Model:      TwoDimensional,
							MoveProb:   0.2,
							CallProb:   0.04,
							UpdateCost: 50,
							PollCost:   1,
							MaxDelay:   3,
						},
						Terminals:     9,
						Threshold:     2,
						Scheme:        sch.scheme,
						Faults:        p.plan,
						SnapshotEvery: every,
						Seed:          11,
						Engine:        EngineDES,
					}
					ref, err := SimulateNetworkSharded(cfg, slots, 1)
					if err != nil {
						t.Fatal(err)
					}
					if p.plan.UpdateRetries > 0 && ref.Retransmissions == 0 {
						t.Fatal("lossy plan retransmitted nothing; the case covers no timers")
					}
					if want := (slots + every - 1) / every; int64(len(ref.Snapshots)) != want {
						t.Fatalf("reference captured %d frames, want %d", len(ref.Snapshots), want)
					}
					want := report(t, ref)
					cfg.Engine = EngineCols
					for _, shards := range []int{1, 3} {
						m, err := SimulateNetworkSharded(cfg, slots, shards)
						if err != nil {
							t.Fatal(err)
						}
						if got := report(t, m); !bytes.Equal(got, want) {
							t.Errorf("cols at %d shard(s) diverged from the reference:\n%s\nreference:\n%s", shards, got, want)
						}
						if p.plan.UpdateRetries == 0 || !resumed[every] {
							continue
						}
						var cps []*Checkpoint
						if _, err := SimulateNetworkCheckpointed(context.Background(), cfg, slots, shards, 48,
							func(cp *Checkpoint) {
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
							}); err != nil {
							t.Fatal(err)
						}
						if len(cps) != (slots-1)/48 {
							t.Fatalf("%d checkpoints, want %d", len(cps), (slots-1)/48)
						}
						for _, cp := range cps {
							m, err := ResumeNetworkCheckpointed(context.Background(), cfg, slots, shards, cp, 0, nil)
							if err != nil {
								t.Fatalf("resuming at slot %d: %v", cp.Slot, err)
							}
							if got := report(t, m); !bytes.Equal(got, want) {
								t.Errorf("%d shard(s) resumed at slot %d diverged from the uninterrupted run:\n%s\nreference:\n%s",
									shards, cp.Slot, got, want)
							}
						}
					}
				})
			}
		}
	}
}
