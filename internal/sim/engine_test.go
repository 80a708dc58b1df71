package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
)

// TestFastPathEquivalence is the columnar engine's contract: for every
// configuration class — both grids, static and dynamic thresholds, zero
// and nonzero fault plans, telemetry on and off — EngineCols, with its
// inline paging and gap-sampled pure stretches, produces bit-identical
// Metrics to the reference EngineDES at every shard count.
// reflect.DeepEqual on the full Metrics covers the counters, the
// per-terminal records, the delay/recovery moments, both latency
// histograms and the telemetry snapshot series; a JSON comparison
// guards the serialized view on top. Run under -race in CI.
// (locman's TestEngineEquivalence covers the same cross-product at the
// public Report-bytes level.)
func TestFastPathEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		slots int64
		// alive asserts the configuration actually exercised the
		// machinery it is in the table to cover, so a regression cannot
		// hide behind an idle run.
		alive func(*testing.T, *Metrics)
	}{
		{
			name: "hex static",
			cfg: func() Config {
				cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 3)
				cfg.Terminals = 12
				return cfg
			},
			slots: 3_000,
			alive: func(t *testing.T, m *Metrics) {
				if m.Updates == 0 || m.Calls == 0 {
					t.Fatalf("idle run: %d updates, %d calls", m.Updates, m.Calls)
				}
			},
		},
		{
			name: "line static with losses",
			cfg: func() Config {
				cfg := baseConfig(chain.OneDim, 0.3, 0.04, 2, 2)
				cfg.Terminals = 10
				cfg.Faults = FaultPlan{
					UpdateLoss:    0.3,
					PollLoss:      0.2,
					ReplyLoss:     0.2,
					UpdateRetries: 2,
					PageRetries:   2,
				}
				return cfg
			},
			slots: 3_000,
			alive: func(t *testing.T, m *Metrics) {
				if m.LostUpdates == 0 || m.Retransmissions == 0 || m.RePolls == 0 {
					t.Fatalf("losses idle: %+d lost, %d retransmissions, %d re-polls",
						m.LostUpdates, m.Retransmissions, m.RePolls)
				}
			},
		},
		{
			name: "hex dynamic heterogeneous with snapshots",
			cfg: func() Config {
				cfg := baseConfig(chain.TwoDimExact, 0.2, 0.02, 3, 2)
				cfg.Terminals = 9
				cfg.Dynamic = true
				cfg.ReoptimizeEvery = 500
				cfg.PerTerminal = func(i int) chain.Params {
					return chain.Params{
						Q: 0.05 + 0.06*float64(i%5),
						C: 0.01 + 0.01*float64(i%3),
					}
				}
				// A cadence that divides neither the reoptimization
				// period nor the slot count, so captures land mid-batch.
				cfg.Telemetry.SnapshotEvery = 700
				return cfg
			},
			slots: 2_500,
			alive: func(t *testing.T, m *Metrics) {
				if len(m.ThresholdSlots) < 2 {
					t.Fatalf("dynamic scheme never moved a threshold: %v", m.ThresholdSlots)
				}
				if len(m.Snapshots) != 4 { // 700, 1400, 2100, 2500
					t.Fatalf("snapshots = %d, want 4", len(m.Snapshots))
				}
			},
		},
		{
			name: "all faults with snapshots and trailing outage",
			cfg: func() Config {
				cfg := faultyConfig()
				// An outage covering the end of the run leaves desynced
				// terminals with retransmission timers still pending at
				// drain time, covering the past-the-end drain path.
				cfg.Faults.Outages = append(cfg.Faults.Outages, Outage{Start: 3_600, End: 4_000})
				return cfg
			},
			slots: 4_000,
			alive: func(t *testing.T, m *Metrics) {
				if m.OutageDeferred == 0 || m.DroppedCalls == 0 || m.Recovery.N() == 0 {
					t.Fatalf("fault machinery idle: %d deferred, %d dropped, %d recoveries",
						m.OutageDeferred, m.DroppedCalls, m.Recovery.N())
				}
			},
		},
		{
			name: "threshold zero",
			cfg: func() Config {
				cfg := baseConfig(chain.TwoDimExact, 0.5, 0.05, 1, 0)
				cfg.Terminals = 6
				return cfg
			},
			slots: 2_000,
			alive: func(t *testing.T, m *Metrics) {
				if m.Updates == 0 {
					t.Fatal("d=0 run sent no updates")
				}
			},
		},
		{
			name: "explicit zero page retries",
			cfg: func() Config {
				cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 3)
				cfg.Terminals = 8
				cfg.Faults = FaultPlan{PollLoss: 0.4, PageRetries: ExplicitZero}
				return cfg
			},
			slots: 2_000,
			alive: func(t *testing.T, m *Metrics) {
				if m.DroppedCalls == 0 {
					t.Fatal("zero retry budget dropped no calls")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg()
			ref.Engine = EngineDES
			want, err := RunSharded(ref, tc.slots, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.alive(t, want)
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{1, 3} {
				cfg := tc.cfg()
				cfg.Engine = EngineCols
				got, err := RunSharded(cfg, tc.slots, shards)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cols engine diverged from DES at %d shard(s):\ncols: %+v\ndes:  %+v",
						shards, got, want)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("cols serialized metrics diverged at %d shard(s)", shards)
				}
			}
		})
	}
}

// TestEngineValidation pins the engine selector's edges: the zero value is
// the columnar engine, names round-trip, the retired "fast" resolves to
// the columnar engine without being advertised, and junk is rejected up
// front.
func TestEngineValidation(t *testing.T) {
	if (Config{}).Engine != EngineCols {
		t.Error("zero-value engine is not the columnar engine")
	}
	names := EngineNames()
	if len(names) != 2 || names[0] != "cols" || names[1] != "des" {
		t.Errorf("EngineNames() = %v, want [cols des]", names)
	}
	for _, name := range names {
		e, err := EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.String() != name {
			t.Errorf("EngineByName(%q).String() = %q", name, e)
		}
	}
	if e, err := EngineByName("fast"); err != nil || e != EngineCols {
		t.Errorf("EngineByName(\"fast\") = %v, %v; want the columnar engine", e, err)
	}
	_, err := EngineByName("warp")
	if err == nil || !strings.Contains(err.Error(), "valid engines: cols, des") {
		t.Errorf("unknown engine name: err = %v, want the valid names enumerated", err)
	}

	cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 3)
	cfg.Engine = Engine(99)
	if _, err := RunSharded(cfg, 100, 1); err == nil {
		t.Error("unknown engine value accepted by validation")
	}
}

// TestNegativeReoptimizePeriodRejected holds both engines to the
// validation a negative dynamic re-optimization period must meet: the run
// is refused before it starts, with the error Validate names. Without
// the check the columnar engine's stretch bound lies behind the current
// slot and never advances, so the deadline guards against a hang.
func TestNegativeReoptimizePeriodRejected(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 3)
	cfg.Terminals = 10
	cfg.Dynamic = true
	cfg.ReoptimizeEvery = -7
	const want = "sim: negative re-optimization period -7"
	if err := Validate(cfg, 100); err == nil || err.Error() != want {
		t.Errorf("Validate: err = %v, want %q", err, want)
	}
	for _, engine := range []Engine{EngineCols, EngineDES} {
		cfg.Engine = engine
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := RunShardedCtx(ctx, cfg, 100, 1)
		cancel()
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", engine, err, want)
		}
	}
}
