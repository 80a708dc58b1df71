package locman

import (
	"math"
	"testing"
)

func TestEvaluateGroupedNeverWorse(t *testing.T) {
	cfg := valid()
	for d := 0; d <= 8; d++ {
		sdf, err := Evaluate(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		gcfg := cfg
		gcfg.Partition = ProbOrder()
		grouped, err := Evaluate(gcfg, d)
		if err != nil {
			t.Fatal(err)
		}
		if grouped.Total > sdf.Total+1e-9 {
			t.Errorf("d=%d: grouped %v worse than SDF %v", d, grouped.Total, sdf.Total)
		}
	}
}

func TestOptimizeGrouped(t *testing.T) {
	cfg := valid()
	sdf, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partition = ProbOrder()
	grouped, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Best.Total > sdf.Best.Total+1e-9 {
		t.Errorf("grouped optimum %v worse than SDF %v", grouped.Best.Total, sdf.Best.Total)
	}
}

func TestOptimizeMeanDelayAPI(t *testing.T) {
	cfg := valid()
	cfg.MaxDelay = Unbounded
	res, err := OptimizeMeanDelay(cfg, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.ExpectedDelay > 1.5+1e-9 {
		t.Errorf("expected delay %v over bound", res.Best.ExpectedDelay)
	}
	if _, err := OptimizeMeanDelay(cfg, 0.2); err == nil {
		t.Error("sub-unit bound accepted")
	}
}

func TestAnalyzeBaselineMatchesSimulation(t *testing.T) {
	cfg := valid()
	ana, err := AnalyzeBaseline(cfg, BaselineLA, 2)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := SimulateBaseline(cfg, BaselineLA, 2, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ana.TotalCost-simr.TotalCost) / ana.TotalCost; rel > 0.05 {
		t.Errorf("analysis %v vs simulation %v", ana.TotalCost, simr.TotalCost)
	}
	if _, err := AnalyzeBaseline(cfg, BaselineDistanceBased, 2); err == nil {
		t.Error("distance-based analysis should defer to Evaluate")
	}
}

func TestDelayDistributionSums(t *testing.T) {
	cfg := valid()
	dist, err := DelayDistribution(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum %v", sum)
	}
}

func TestRingCycles(t *testing.T) {
	cfg := valid() // m = 3
	rc, err := RingCycles(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc) != 6 {
		t.Fatalf("%d rings", len(rc))
	}
	// Cycles are non-decreasing in ring index, start at 0, max < m.
	prev := 0
	for i, c := range rc {
		if c < prev || c-prev > 1 {
			t.Errorf("ring %d: cycle %d after %d", i, c, prev)
		}
		if c >= 3 {
			t.Errorf("ring %d: cycle %d exceeds m", i, c)
		}
		prev = c
	}
	if rc[0] != 0 {
		t.Errorf("ring 0 in cycle %d", rc[0])
	}
	bad := cfg
	bad.MoveProb = -1
	if _, err := RingCycles(bad, 3); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestExtensionValidation(t *testing.T) {
	bad := Config{Model: OneDimensional, MoveProb: -1, UpdateCost: 1, PollCost: 1}
	if _, err := DelayDistribution(bad, 1); err == nil {
		t.Error("DelayDistribution accepted invalid config")
	}
	if _, err := OptimizeMeanDelay(bad, 2); err == nil {
		t.Error("OptimizeMeanDelay accepted invalid config")
	}
	if _, err := AnalyzeBaseline(bad, BaselineLA, 1); err == nil {
		t.Error("AnalyzeBaseline accepted invalid config")
	}
	if _, _, err := OptimalLocationArea(bad, 10); err == nil {
		t.Error("OptimalLocationArea accepted invalid config")
	}
}
