package core

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/paging"
)

func TestEvaluateGroupedNeverWorseThanSDF(t *testing.T) {
	for _, m := range []int{1, 2, 3, 0} {
		cfg := tableConfig(chain.TwoDimExact, 300, m, false)
		for d := 0; d <= 10; d++ {
			sdf, err := cfg.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			gcfg := cfg
			gcfg.Scheme = paging.ProbOrder{}
			grouped, err := gcfg.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			if grouped.Total > sdf.Total+1e-9 {
				t.Errorf("m=%d d=%d: grouped %v worse than SDF %v", m, d, grouped.Total, sdf.Total)
			}
			if grouped.Update != sdf.Update {
				t.Errorf("m=%d d=%d: update cost changed", m, d)
			}
			if m > 0 && grouped.MaxCycles > m {
				t.Errorf("m=%d d=%d: %d cycles", m, d, grouped.MaxCycles)
			}
		}
	}
}

func TestScanGroupedImprovesOptimalCost(t *testing.T) {
	cfg := tableConfig(chain.TwoDimExact, 300, 3, false)
	sdf, err := Scan(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = paging.ProbOrder{}
	grouped, err := Scan(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Best.Total > sdf.Best.Total+1e-9 {
		t.Errorf("grouped optimum %v worse than SDF optimum %v", grouped.Best.Total, sdf.Best.Total)
	}
	if len(grouped.Curve) != 41 {
		t.Errorf("curve length %d", len(grouped.Curve))
	}
}

func TestDelayDistribution(t *testing.T) {
	cfg := tableConfig(chain.TwoDimExact, 100, 3, false)
	dist, err := cfg.DelayDistribution(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 3 {
		t.Fatalf("%d cycles, want 3", len(dist))
	}
	sum := 0.0
	mean := 0.0
	for j, p := range dist {
		if p < 0 {
			t.Errorf("negative probability at cycle %d", j+1)
		}
		sum += p
		mean += p * float64(j+1)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("distribution sums to %v", sum)
	}
	b, err := cfg.Evaluate(5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-b.ExpectedDelay) > 1e-12 {
		t.Errorf("mean %v vs Breakdown.ExpectedDelay %v", mean, b.ExpectedDelay)
	}
}

func TestOptimizeMeanDelayRespectsBound(t *testing.T) {
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	for _, bound := range []float64{1.0, 1.3, 1.8, 2.5, 4} {
		res, err := OptimizeMeanDelay(cfg, bound, 30)
		if err != nil {
			t.Fatalf("bound %v: %v", bound, err)
		}
		if res.Best.ExpectedDelay > bound+1e-9 {
			t.Errorf("bound %v: expected delay %v", bound, res.Best.ExpectedDelay)
		}
	}
}

func TestOptimizeMeanDelayMonotone(t *testing.T) {
	// A looser mean-delay bound can never cost more.
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	prev := math.Inf(1)
	for _, bound := range []float64{1.0, 1.2, 1.5, 2.0, 3.0, 5.0} {
		res, err := OptimizeMeanDelay(cfg, bound, 30)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Total > prev+1e-9 {
			t.Errorf("bound %v: cost %v above tighter bound's %v", bound, res.Best.Total, prev)
		}
		prev = res.Best.Total
	}
}

func TestOptimizeMeanDelayUnitBoundIsBlanket(t *testing.T) {
	// Mean delay ≤ 1 forces single-cycle paging everywhere, so the result
	// must match the m=1 worst-case optimum.
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	res, err := OptimizeMeanDelay(cfg, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	m1 := tableConfig(chain.TwoDimExact, 300, 1, false)
	want, err := Scan(m1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best.Total-want.Best.Total) > 1e-9 {
		t.Errorf("mean-delay-1 optimum %v vs m=1 optimum %v", res.Best.Total, want.Best.Total)
	}
}

func TestOptimizeMeanDelayBeatsWorstCaseBound(t *testing.T) {
	// A mean-delay budget of 2 cycles admits configurations a worst-case
	// m=2 bound forbids, so it can only do better (or equal).
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	mean, err := OptimizeMeanDelay(cfg, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Scan(tableConfig(chain.TwoDimExact, 300, 2, false), 30)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Best.Total > worst.Best.Total+1e-9 {
		t.Errorf("mean-bound %v worse than worst-case bound %v", mean.Best.Total, worst.Best.Total)
	}
}

func TestOptimizeMeanDelayErrors(t *testing.T) {
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	if _, err := OptimizeMeanDelay(cfg, 0.5, 10); err == nil {
		t.Error("sub-unit bound accepted")
	}
	bad := cfg
	bad.Params = chain.Params{Q: 2}
	if _, err := OptimizeMeanDelay(bad, 2, 10); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := bad.DelayDistribution(1); err == nil {
		t.Error("invalid config accepted by DelayDistribution")
	}
}

func TestOptimizeMeanDelayWithDPScheme(t *testing.T) {
	cfg := tableConfig(chain.TwoDimExact, 300, 0, false)
	cfg.Scheme = paging.OptimalDP{}
	res, err := OptimizeMeanDelay(cfg, 1.5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.ExpectedDelay > 1.5 {
		t.Errorf("expected delay %v", res.Best.ExpectedDelay)
	}
}
