// Integration tests: one operating point evaluated through every
// independent path in the repository — exact analysis, closed forms, the
// dense generic Markov solver, power iteration, the discrete-event PCN
// system and the walk solved cell by cell — all of which must agree on the
// paper's C_T. (The baseline package's time-, movement- and distance-based
// schemes run on the same PCN simulator, so they are not a separate path.)
package repro_test

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/markov"
	"repro/internal/paging"
	"repro/internal/sim"
)

// TestAllPathsAgree evaluates 2-D, q=0.05, c=0.01, U=100, V=10, d=3, m=2
// through five code paths: the paper's distance chain solved three ways,
// the PCN simulator, and the cell-level chain, which shares no code with
// the simulator and, unlike the distance chain, is exact for the hexagonal
// walk. The simulator is held to both chains.
func TestAllPathsAgree(t *testing.T) {
	const (
		d     = 3
		m     = 2
		slots = 3_000_000
	)
	params := chain.Params{Q: 0.05, C: 0.01}
	costs := core.Costs{Update: 100, Poll: 10}
	cfg := core.Config{Model: chain.TwoDimExact, Params: params, Costs: costs, MaxDelay: m}

	// Path 1: the structured cut-balance solver through the cost model.
	exact, err := cfg.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: the dense generic Markov solver, costs assembled by hand.
	mc, err := markov.DistanceChain(chain.TwoDimExact, params, d)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := mc.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	rings := grid.TwoDimHex.RingSizes(d)
	part := paging.SDF{}.Partition(rings, nil, m)
	dense := chain.UpdateProb(chain.TwoDimExact, params, pi)*costs.Update +
		params.C*costs.Poll*part.ExpectedCells(pi)
	if math.Abs(dense-exact.Total) > 1e-10 {
		t.Errorf("dense solver path: %v vs %v", dense, exact.Total)
	}

	// Path 3: power iteration on the same chain.
	piPow, err := mc.PowerIteration(1e-14, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	power := chain.UpdateProb(chain.TwoDimExact, params, piPow)*costs.Update +
		params.C*costs.Poll*part.ExpectedCells(piPow)
	if math.Abs(power-exact.Total) > 1e-6 {
		t.Errorf("power iteration path: %v vs %v", power, exact.Total)
	}

	// Path 4: the discrete-event PCN system.
	metrics, err := sim.Run(sim.Config{Core: cfg, Terminals: 4, Threshold: d, Seed: 55}, slots/4)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.NotFound != 0 {
		t.Fatalf("PCN path: %d paging failures", metrics.NotFound)
	}
	if rel := math.Abs(metrics.TotalCost-exact.Total) / exact.Total; rel > 0.03 {
		t.Errorf("PCN path: %v vs %v (rel %.3f)", metrics.TotalCost, exact.Total, rel)
	}

	// Path 5: the walk solved cell by cell on the residing disk, which
	// does not assume the ring process is lumpable, priced by hand.
	occ, update, err := markov.CellWalk(grid.TwoDimHex, params, d)
	if err != nil {
		t.Fatal(err)
	}
	cell := update*costs.Update + params.C*costs.Poll*part.ExpectedCells(occ)
	cellDelay := part.ExpectedDelay(occ)
	if rel := math.Abs(cell-exact.Total) / exact.Total; rel > 0.03 {
		t.Errorf("cell walk path: %v vs %v (rel %.3f)", cell, exact.Total, rel)
	}
	if rel := math.Abs(metrics.TotalCost-cell) / cell; rel > 0.03 {
		t.Errorf("PCN path vs cell walk: %v vs %v (rel %.3f)", metrics.TotalCost, cell, rel)
	}

	// The delay metric agrees across analysis, the cell walk and the PCN
	// system.
	for name, got := range map[string]float64{
		"sim":  metrics.Delay.Mean(),
		"cell": cellDelay,
	} {
		if math.Abs(got-exact.ExpectedDelay) > 0.03 {
			t.Errorf("%s delay: %v vs analytical %v", name, got, exact.ExpectedDelay)
		}
	}
	if math.Abs(metrics.Delay.Mean()-cellDelay) > 0.03 {
		t.Errorf("sim delay %v vs cell walk %v", metrics.Delay.Mean(), cellDelay)
	}
}

// TestClosedFormPathAgrees covers the 1-D closed form end to end: the
// paper's Table 1 configuration evaluated through the closed-form
// stationary solution must equal the structured solver's cost exactly.
func TestClosedFormPathAgrees(t *testing.T) {
	params := chain.Params{Q: 0.05, C: 0.01}
	costs := core.Costs{Update: 100, Poll: 10}
	for d := 0; d <= 12; d++ {
		for _, m := range []int{1, 2, 3, 0} {
			cfg := core.Config{Model: chain.OneDim, Params: params, Costs: costs, MaxDelay: m}
			exact, err := cfg.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			pi, err := chain.StationaryClosedForm(chain.OneDim, params, d)
			if err != nil {
				t.Fatal(err)
			}
			rings := grid.OneDim.RingSizes(d)
			part := paging.SDF{}.Partition(rings, nil, m)
			closed := chain.UpdateProb(chain.OneDim, params, pi)*costs.Update +
				params.C*costs.Poll*part.ExpectedCells(pi)
			if math.Abs(closed-exact.Total) > 1e-10 {
				t.Errorf("d=%d m=%d: closed form %v vs solver %v", d, m, closed, exact.Total)
			}
		}
	}
}
