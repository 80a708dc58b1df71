// Package walk checks the single-terminal random walk of the paper's
// mobility model — moves, calls, distance-based updates and delay-bounded
// paging on the actual grids — against the analysis. The walk runs on
// internal/sim, the one simulator; this package holds no code of its own.
package walk

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/paging"
	"repro/internal/sim"
)

func cfg(model chain.Model, q, c, u, v float64, m int) core.Config {
	return core.Config{
		Model:    model,
		Params:   chain.Params{Q: q, C: c},
		Costs:    core.Costs{Update: u, Poll: v},
		MaxDelay: m,
	}
}

// run walks one terminal with update threshold d for the given slots.
func run(c core.Config, d int, slots int64, seed uint64) (*sim.Metrics, error) {
	return sim.Run(sim.Config{Core: c, Threshold: d, Seed: seed}, slots)
}

func TestRunMatchesAnalysis1D(t *testing.T) {
	c := cfg(chain.OneDim, 0.05, 0.01, 100, 10, 2)
	const d = 3
	want, err := c.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(c, d, 4_000_000, 1)
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
	c := cfg(chain.TwoDimExact, 0.05, 0.01, 100, 10, 3)
	const d = 4
	want, err := c.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(c, d, 4_000_000, 2)
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
	// systematic deviation (≈1-2% relative) is expected and tolerated.
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
		res, err := run(cfg(tc.model, p.Q, p.C, 50, 1, paging.Unbounded), d, 3_000_000, 3)
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
	c := cfg(chain.TwoDimExact, 0.3, 0.1, 10, 1, 2)
	res, err := run(c, 7, 200_000, 4)
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
	c := cfg(chain.OneDim, 0.3, 0.2, 1, 1, 1)
	res, err := run(c, 0, 1_000_000, 5)
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
	c := cfg(chain.TwoDimExact, 0, 0.5, 10, 1, paging.Unbounded)
	res, err := run(c, 2, 100_000, 6)
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

func TestRunDeterministicPerSeed(t *testing.T) {
	c := cfg(chain.TwoDimExact, 0.1, 0.05, 10, 1, 2)
	a, err := run(c, 3, 100_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(c, 3, 100_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates != b.Updates || a.Calls != b.Calls || a.PolledCells != b.PolledCells {
		t.Error("same seed produced different runs")
	}
	d, err := run(c, 3, 100_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates == d.Updates && a.PolledCells == d.PolledCells {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunWithOptimalDPScheme(t *testing.T) {
	base := cfg(chain.TwoDimExact, 0.05, 0.01, 100, 10, 2)
	dp := base
	dp.Scheme = paging.OptimalDP{}
	want, err := dp.Evaluate(6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(dp, 6, 2_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("DP scheme: simulated %v vs analytical %v", got.TotalCost, want.Total)
	}
	if got.Delay.Max() > 2 {
		t.Errorf("DP scheme: worst delay %v exceeds bound", got.Delay.Max())
	}
}

func TestRunErrors(t *testing.T) {
	// A negative threshold is valid here: it selects the network-optimized
	// threshold (sim.Config.Threshold). One past the clamp is not.
	good := cfg(chain.OneDim, 0.1, 0.1, 1, 1, 1)
	if _, err := run(good, 51, 1000, 0); err == nil {
		t.Error("d above MaxThreshold accepted")
	}
	if _, err := run(good, 1, 0, 0); err == nil {
		t.Error("zero slots accepted")
	}
	bad := cfg(chain.OneDim, 0.9, 0.9, 1, 1, 1)
	if _, err := run(bad, 1, 1000, 0); err == nil {
		t.Error("invalid params accepted")
	}
}
