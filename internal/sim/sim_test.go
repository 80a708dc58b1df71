package sim

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/wire"
)

func baseConfig(model chain.Model, q, c float64, m, d int) Config {
	return Config{
		Core: core.Config{
			Model:    model,
			Params:   chain.Params{Q: q, C: c},
			Costs:    core.Costs{Update: 100, Poll: 10},
			MaxDelay: m,
		},
		Terminals: 1,
		Threshold: d,
		Seed:      1,
	}
}

func TestRunMatchesAnalysis(t *testing.T) {
	for _, tc := range []struct {
		model chain.Model
		d     int
		m     int
	}{
		{chain.OneDim, 3, 2},
		{chain.TwoDimExact, 2, 1},
		{chain.TwoDimExact, 4, 3},
	} {
		cfg := baseConfig(tc.model, 0.05, 0.01, tc.m, tc.d)
		want, err := cfg.Core.Evaluate(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got.NotFound != 0 {
			t.Fatalf("%v d=%d: %d paging failures", tc.model, tc.d, got.NotFound)
		}
		if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
			t.Errorf("%v d=%d m=%d: simulated %v vs analytical %v",
				tc.model, tc.d, tc.m, got.TotalCost, want.Total)
		}
		if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.05 {
			t.Errorf("%v d=%d: delay %v vs analytical %v",
				tc.model, tc.d, got.Delay.Mean(), want.ExpectedDelay)
		}
		// The paper's hard guarantee: no call ever takes more than m
		// polling cycles (the mean-based checks above cannot see a rare
		// violation; the maximum can).
		if got.Delay.Max() > float64(tc.m) {
			t.Errorf("%v d=%d m=%d: worst observed delay %v cycles breaks the bound",
				tc.model, tc.d, tc.m, got.Delay.Max())
		}
		if got.Delay.Min() < 1 {
			t.Errorf("%v d=%d: delay below one cycle: %v", tc.model, tc.d, got.Delay.Min())
		}
	}
}

func TestRunMultipleTerminalsAggregates(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 3)
	cfg.Terminals = 20
	want, err := cfg.Core.Evaluate(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Terminals != 20 {
		t.Fatalf("Terminals = %d", got.Terminals)
	}
	if got.NotFound != 0 {
		t.Fatalf("%d paging failures", got.NotFound)
	}
	// 20 terminals × 100k slots gives 2M samples: per-terminal averages
	// should be close to the analytical values.
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("per-terminal cost %v vs analytical %v", got.TotalCost, want.Total)
	}
}

func TestRunNetworkOptimizedThreshold(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 3, -1)
	res, err := core.Scan(cfg.Core, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// All slots must have been spent at the scan optimum.
	if got.ThresholdSlots[res.Best.Threshold] != 50_000 {
		t.Errorf("threshold histogram %v, want all at %d", got.ThresholdSlots, res.Best.Threshold)
	}
}

func TestRunByteAccounting(t *testing.T) {
	cfg := baseConfig(chain.OneDim, 0.2, 0.05, 2, 2)
	got, err := Run(cfg, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Updates == 0 || got.Calls == 0 {
		t.Fatal("no traffic simulated")
	}
	if got.UpdateBytes != got.Updates*wire.UpdateSize {
		t.Errorf("update bytes %d, want %d", got.UpdateBytes, got.Updates*wire.UpdateSize)
	}
	if got.PollBytes != got.PolledCells*wire.PollSize {
		t.Errorf("poll bytes %d, want %d", got.PollBytes, got.PolledCells*wire.PollSize)
	}
	if got.ReplyBytes != got.Calls*wire.ReplySize {
		t.Errorf("reply bytes %d, want %d (calls=%d)", got.ReplyBytes, got.Calls*wire.ReplySize, got.Calls)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.03, 2, 3)
	a, err := Run(cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates != b.Updates || a.PolledCells != b.PolledCells || a.Calls != b.Calls {
		t.Error("same seed diverged")
	}
	cfg.Seed = 2
	c, err := Run(cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates == c.Updates && a.PolledCells == c.PolledCells {
		t.Error("different seeds identical (suspicious)")
	}
}

func TestRunDynamicConvergesToOptimal(t *testing.T) {
	// A terminal whose true parameters differ from the network default:
	// the dynamic scheme must steer its threshold toward the optimum for
	// its true parameters.
	trueParams := chain.Params{Q: 0.3, C: 0.005}
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.05, 2, 1) // wrong default
	cfg.Dynamic = true
	cfg.PerTerminal = func(int) chain.Params { return trueParams }
	cfg.ReoptimizeEvery = 1000
	cfg.EWMAAlpha = 0.01

	optCfg := cfg.Core
	optCfg.Params = trueParams
	want, err := core.Scan(optCfg, 50)
	if err != nil {
		t.Fatal(err)
	}

	got, err := Run(cfg, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.NotFound != 0 {
		t.Fatalf("%d paging failures under dynamic thresholds", got.NotFound)
	}
	// The most-occupied threshold over the run's second half should be
	// within 1 ring of the true optimum; check the histogram's mode.
	var mode int
	var best int64
	for d, n := range got.ThresholdSlots {
		if n > best {
			mode, best = d, n
		}
	}
	diff := mode - want.Best.Threshold
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Errorf("dynamic threshold mode %d, true optimum %d (hist %v)",
			mode, want.Best.Threshold, got.ThresholdSlots)
	}
}

func TestRunHeterogeneousPopulation(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 2, 2)
	cfg.Terminals = 10
	cfg.PerTerminal = func(i int) chain.Params {
		return chain.Params{Q: 0.02 + 0.03*float64(i%5), C: 0.01}
	}
	got, err := Run(cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.NotFound != 0 {
		t.Errorf("%d paging failures", got.NotFound)
	}
	if got.Calls == 0 || got.Updates == 0 {
		t.Error("no traffic")
	}
}

func TestRunErrors(t *testing.T) {
	good := baseConfig(chain.OneDim, 0.1, 0.1, 1, 1)
	if _, err := Run(good, 0); err == nil {
		t.Error("zero slots accepted")
	}
	bad := good
	bad.Core.Params = chain.Params{Q: 0.9, C: 0.9}
	if _, err := Run(bad, 100); err == nil {
		t.Error("invalid params accepted")
	}
	tooBig := good
	tooBig.Threshold = 100 // above default MaxThreshold 50
	if _, err := Run(tooBig, 100); err == nil {
		t.Error("threshold above MaxThreshold accepted")
	}
	badTerm := good
	badTerm.PerTerminal = func(int) chain.Params { return chain.Params{Q: 2} }
	if _, err := Run(badTerm, 100); err == nil {
		t.Error("invalid per-terminal params accepted")
	}
	hugeM := good
	hugeM.MaxThreshold = SlotTicks
	if _, err := Run(hugeM, 100); err == nil {
		t.Error("MaxThreshold exceeding slot capacity accepted")
	}
}

func TestEstimatorTracksTruth(t *testing.T) {
	var e estimator
	rngQ, rngC := 0.23, 0.07
	r := newTestRNG()
	for i := 0; i < 200_000; i++ {
		e.observe(0.01, r.Bernoulli(rngQ), r.Bernoulli(rngC))
	}
	p := e.params()
	if math.Abs(p.Q-rngQ) > 0.02 {
		t.Errorf("q estimate %v, truth %v", p.Q, rngQ)
	}
	if math.Abs(p.C-rngC) > 0.02 {
		t.Errorf("c estimate %v, truth %v", p.C, rngC)
	}
}

func TestEstimatorClampsInvalid(t *testing.T) {
	e := estimator{q: 0.8, c: 0.8}
	p := e.params()
	if err := p.Validate(); err != nil {
		t.Errorf("clamped params invalid: %v", err)
	}
	e = estimator{q: -0.1, c: -0.1}
	p = e.params()
	if p.Q != 0 || p.C != 0 {
		t.Errorf("negative estimates not clamped: %+v", p)
	}
}

// TestTerminalFootprint pins the per-terminal struct both engines hold
// for the whole run: 72 bytes, with the cell, center, threshold and
// call/move draw thresholds held once, in the network's columns, and
// the estimator's smoothing constant once, in the configuration. It is
// the first term of a run's per-terminal memory.
func TestTerminalFootprint(t *testing.T) {
	if got := unsafe.Sizeof(terminal{}); got != 72 {
		t.Errorf("terminal is %d bytes, want 72", got)
	}
}
