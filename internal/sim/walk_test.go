package sim

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/paging"
)

// The tests below hold one terminal's random walk — moves, calls,
// distance-based updates and delay-bounded paging on the actual grids —
// to the analysis.

// walkConfig is baseConfig for one terminal under the given seed.
func walkConfig(model chain.Model, q, c float64, m, d int, seed uint64) Config {
	cfg := baseConfig(model, q, c, m, d)
	cfg.Seed = seed
	return cfg
}

func TestRunMatchesAnalysis1D(t *testing.T) {
	cfg := walkConfig(chain.OneDim, 0.05, 0.01, 2, 3, 1)
	want, err := cfg.Core.Evaluate(cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.02 {
		t.Errorf("total cost: simulated %v vs analytical %v (rel %v)", got.TotalCost, want.Total, rel)
	}
	if rel := math.Abs(got.UpdateCost-want.Update) / want.Update; rel > 0.05 {
		t.Errorf("update cost: simulated %v vs analytical %v", got.UpdateCost, want.Update)
	}
	if rel := math.Abs(got.PagingCost-want.Paging) / want.Paging; rel > 0.05 {
		t.Errorf("paging cost: simulated %v vs analytical %v", got.PagingCost, want.Paging)
	}
	if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.03 {
		t.Errorf("delay: simulated %v vs analytical %v", got.Delay.Mean(), want.ExpectedDelay)
	}
}

func TestRunMatchesAnalysis2DExact(t *testing.T) {
	// The hex walk exercises the true per-cell geometry; its long-run cost
	// must match the exact 2-D chain, validating the ring-averaged
	// transition probabilities (paper eqs. 39-42).
	cfg := walkConfig(chain.TwoDimExact, 0.05, 0.01, 3, 4, 2)
	want, err := cfg.Core.Evaluate(cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.02 {
		t.Errorf("total cost: simulated %v vs analytical %v (rel %v)", got.TotalCost, want.Total, rel)
	}
	if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.03 {
		t.Errorf("delay: simulated %v vs analytical %v", got.Delay.Mean(), want.ExpectedDelay)
	}
}

func TestRingOccupancyMatchesStationary(t *testing.T) {
	// Unbounded delay pages one ring per cycle, so a call to a terminal in
	// ring i takes i+1 cycles; calls arrive independently of position, so
	// the delay histogram is the ring occupancy.
	//
	// The 1-D ring process is exactly lumpable (both cells of a ring are
	// symmetric), so occupancy must match the chain to within noise. In
	// 2-D the ring process is NOT exactly lumpable — corner and edge cells
	// of a hexagonal ring have different outward-neighbor counts, and the
	// paper's chain uses the ring-averaged rates (eqs. 39-40) — so a small
	// systematic deviation is expected and tolerated.
	p := chain.Params{Q: 0.2, C: 0.05}
	const d = 5
	for _, tc := range []struct {
		model chain.Model
		tol   float64
	}{
		{chain.OneDim, 0.004},
		{chain.TwoDimExact, 0.012},
	} {
		pi, err := chain.Stationary(tc.model, p, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(walkConfig(tc.model, p.Q, p.C, paging.Unbounded, d, 3), 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pi {
			occ := float64(res.DelayHist.Counts[i+1]) / float64(res.Delay.N())
			if diff := math.Abs(occ - pi[i]); diff > tc.tol {
				t.Errorf("%v: ring %d occupancy %v vs stationary %v", tc.model, i, occ, pi[i])
			}
		}
	}
}

func TestRunDelayBoundNeverExceeded(t *testing.T) {
	res, err := Run(walkConfig(chain.TwoDimExact, 0.3, 0.1, 2, 7, 4), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 {
		t.Fatal("no calls simulated")
	}
	// The paper's hard guarantee: the worst observed paging delay never
	// exceeds m = 2 polling cycles.
	if res.Delay.Max() > 2 {
		t.Errorf("worst delay %v exceeds bound", res.Delay.Max())
	}
	if res.Delay.Min() < 1 {
		t.Errorf("delay below one cycle: %v", res.Delay.Min())
	}
}

func TestRunThresholdZero(t *testing.T) {
	// d=0: every move is an update, every call polls exactly one cell.
	res, err := Run(walkConfig(chain.OneDim, 0.3, 0.2, 1, 0, 5), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.Updates) / float64(res.Slots); math.Abs(got-0.3) > 0.01 {
		t.Errorf("update rate %v, want ≈ q", got)
	}
	if got := float64(res.PolledCells) / float64(res.Calls); got != 1 {
		t.Errorf("cells per call = %v, want 1", got)
	}
}

func TestRunNoMovement(t *testing.T) {
	// Paging ring by ring finds a terminal that never left the center
	// cell on the first cycle, polling that one cell.
	res, err := Run(walkConfig(chain.TwoDimExact, 0, 0.5, paging.Unbounded, 2, 6), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 0 {
		t.Errorf("stationary terminal performed %d updates", res.Updates)
	}
	if res.Calls == 0 || res.PolledCells != res.Calls || res.Delay.Max() != 1 {
		t.Errorf("%d calls polled %d cells, worst delay %v: terminal not always in ring 0",
			res.Calls, res.PolledCells, res.Delay.Max())
	}
}
