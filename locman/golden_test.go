package locman

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenConfigs are the pinned report configurations. The distance-scheme
// fixtures were generated before the update-scheme extraction, and the
// timer and movement fixtures before the paging exchange was written as
// one set of stages, so a passing run proves the refactored engines still
// produce the pre-refactor reports byte-for-byte. The cases deliberately
// cover both grids, all three update schemes, the fault/recovery
// machinery (recovery rounds, dropped calls, the timer deadline),
// telemetry frames, the dynamic per-user scheme and a heterogeneous
// population (the pcnsim -hetero parameter ramp, which the Fleet
// descriptor must reproduce exactly).
func goldenConfigs() map[string]NetworkConfig {
	lossy := goldenLossy()
	timer := lossy
	timer.Scheme = TimerUpdate(37)
	movement := lossy
	movement.Model = OneDimensional
	movement.Scheme = MovementUpdate(5)
	return map[string]NetworkConfig{
		"2d-static-lossy":   lossy,
		"2d-timer-lossy":    timer,
		"1d-movement-lossy": movement,
		"1d-static-hetero": {
			Config: Config{
				Model:      OneDimensional,
				MoveProb:   0.3,
				CallProb:   0.02,
				UpdateCost: 100,
				PollCost:   10,
				MaxDelay:   3,
			},
			Terminals: 12,
			Threshold: 3,
			Fleet:     HeteroFleet(0.3, 0.02),
			Seed:      7,
		},
		"2d-dynamic-clean": {
			Config: Config{
				Model:      TwoDimensional,
				MoveProb:   0.1,
				CallProb:   0.02,
				UpdateCost: 100,
				PollCost:   10,
				MaxDelay:   3,
			},
			Terminals:       8,
			Threshold:       2,
			Dynamic:         true,
			ReoptimizeEvery: 500,
			SnapshotEvery:   700,
			Seed:            3,
		},
	}
}

// goldenLossy is the 2-D distance-scheme shape with every fault kind and
// an outage; the timer and movement goldens reuse it with their trigger.
func goldenLossy() NetworkConfig {
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
		Faults: FaultPlan{
			UpdateLoss:    0.25,
			PollLoss:      0.15,
			ReplyLoss:     0.1,
			UpdateRetries: 2,
			PageRetries:   3,
			Outages:       []Outage{{Start: 300, End: 450}},
		},
		SnapshotEvery: 400,
		Seed:          11,
	}
}

const goldenSlots = 1_500

// TestGoldenDistanceReport pins the update schemes (distance, timer and
// movement) to their pre-refactor output: the full Report JSON of each
// golden configuration must match the committed fixture byte-for-byte, on
// every engine. Regenerate with
// `go test ./locman -run TestGoldenDistanceReport -update` — but only when
// a change is *supposed* to alter simulated results, which almost nothing
// is.
func TestGoldenDistanceReport(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+name+".json")
			got := goldenReport(t, cfg, EngineCols, 3)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cols-engine report diverged from pre-refactor fixture %s:\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
			for _, e := range []Engine{EngineDES, EngineCols} {
				if other := goldenReport(t, cfg, e, 1); !bytes.Equal(other, want) {
					t.Errorf("%s engine diverged from fixture %s", e, path)
				}
			}
		})
	}
}

func goldenReport(t *testing.T, cfg NetworkConfig, engine Engine, shards int) []byte {
	t.Helper()
	cfg.Engine = engine
	m, err := SimulateNetworkSharded(cfg, goldenSlots, shards)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(NewReport(m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}
