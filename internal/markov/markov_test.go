package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/grid"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := New([][]float64{{0.5, 0.5}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := New([][]float64{{0.5, 0.4}, {0.5, 0.5}}); err == nil {
		t.Error("row not summing to 1 accepted")
	}
	if _, err := New([][]float64{{1.5, -0.5}, {0.5, 0.5}}); err == nil {
		t.Error("negative entry accepted")
	}
	c, err := New([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.At(0, 1) != 0.1 {
		t.Error("accessors wrong")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// π for P = [[1-a, a], [b, 1-b]] is (b, a)/(a+b).
	a, b := 0.3, 0.12
	c, err := New([][]float64{{1 - a, a}, {b, 1 - b}})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-b/(a+b)) > 1e-12 || math.Abs(pi[1]-a/(a+b)) > 1e-12 {
		t.Errorf("pi = %v", pi)
	}
}

func TestStationarySingularReported(t *testing.T) {
	// Two absorbing states: no unique stationary distribution.
	c, err := New([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stationary(); err == nil {
		t.Error("expected singular-system error")
	}
}

func TestPowerIterationMatchesDirect(t *testing.T) {
	c, err := New([][]float64{
		{0.5, 0.3, 0.2},
		{0.1, 0.8, 0.1},
		{0.4, 0.1, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	iter, err := c.PowerIteration(1e-13, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(direct[i]-iter[i]) > 1e-9 {
			t.Errorf("state %d: direct %v vs power %v", i, direct[i], iter[i])
		}
	}
}

func TestPowerIterationPeriodicChain(t *testing.T) {
	// A 2-cycle is periodic; Cesàro damping must still converge to (.5,.5).
	c, err := New([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.PowerIteration(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-9 || math.Abs(pi[1]-0.5) > 1e-9 {
		t.Errorf("pi = %v", pi)
	}
}

func TestPowerIterationArgErrors(t *testing.T) {
	c, _ := New([][]float64{{1}})
	if _, err := c.PowerIteration(0, 10); err == nil {
		t.Error("tol=0 accepted")
	}
	if _, err := c.PowerIteration(1e-9, 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
}

func TestDistanceChainMatchesStructuredSolver(t *testing.T) {
	params := []chain.Params{
		{Q: 0.05, C: 0.01},
		{Q: 0.5, C: 0.1},
		{Q: 0.01, C: 0.3},
	}
	for _, m := range []chain.Model{chain.OneDim, chain.TwoDimExact, chain.TwoDimApprox} {
		for _, p := range params {
			for _, d := range []int{0, 1, 2, 5, 12} {
				mc, err := DistanceChain(m, p, d)
				if err != nil {
					t.Fatalf("%v %+v d=%d: %v", m, p, d, err)
				}
				dense, err := mc.Stationary()
				if err != nil {
					t.Fatalf("%v %+v d=%d: %v", m, p, d, err)
				}
				structured, err := chain.Stationary(m, p, d)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dense {
					if math.Abs(dense[i]-structured[i]) > 1e-10 {
						t.Errorf("%v %+v d=%d state %d: dense %v vs structured %v",
							m, p, d, i, dense[i], structured[i])
					}
				}
			}
		}
	}
}

func TestDistanceChainProperty(t *testing.T) {
	f := func(qr, cr uint16, dr uint8) bool {
		q := float64(qr)/65535.0*0.9 + 0.01
		c := (1 - q) * float64(cr) / 65535.0 * 0.9
		d := int(dr % 15)
		mc, err := DistanceChain(chain.TwoDimExact, chain.Params{Q: q, C: c}, d)
		if err != nil {
			return false
		}
		dense, err := mc.Stationary()
		if err != nil {
			return false
		}
		structured, err := chain.Stationary(chain.TwoDimExact, chain.Params{Q: q, C: c}, d)
		if err != nil {
			return false
		}
		for i := range dense {
			if math.Abs(dense[i]-structured[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDistanceChainErrors(t *testing.T) {
	if _, err := DistanceChain(chain.OneDim, chain.Params{Q: 2, C: 0}, 3); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := DistanceChain(chain.OneDim, chain.Params{Q: 0.1, C: 0}, -1); err == nil {
		t.Error("negative d accepted")
	}
}

// TestCellWalkMatchesDistanceChain holds the cell-level walk to the
// distance chain where the ring process is lumpable: on the line, where
// both cells of a ring are mirror images, and on the hexagonal plane for
// d ≤ 1, where all six cells of ring 1 are corners.
func TestCellWalkMatchesDistanceChain(t *testing.T) {
	params := []chain.Params{
		{Q: 0.05, C: 0.01},
		{Q: 0.5, C: 0.1},
		{Q: 0.01, C: 0.3},
		{Q: 0.9, C: 0},
	}
	for _, tc := range []struct {
		model chain.Model
		maxD  int
	}{
		{chain.OneDim, 8},
		{chain.TwoDimExact, 1},
	} {
		for _, p := range params {
			for d := 0; d <= tc.maxD; d++ {
				rings, update, err := CellWalk(tc.model.Grid(), p, d)
				if err != nil {
					t.Fatalf("%v %+v d=%d: %v", tc.model, p, d, err)
				}
				mc, err := DistanceChain(tc.model, p, d)
				if err != nil {
					t.Fatal(err)
				}
				pi, err := mc.Stationary()
				if err != nil {
					t.Fatal(err)
				}
				for i := range pi {
					if math.Abs(rings[i]-pi[i]) > 1e-12 {
						t.Errorf("%v %+v d=%d ring %d: cell walk %v vs distance chain %v",
							tc.model, p, d, i, rings[i], pi[i])
					}
				}
				if want := chain.UpdateProb(tc.model, p, pi); math.Abs(update-want) > 1e-12 {
					t.Errorf("%v %+v d=%d: update probability %v vs %v", tc.model, p, d, update, want)
				}
			}
		}
	}
}

func TestCellWalkErrors(t *testing.T) {
	for _, k := range []grid.Kind{grid.OneDim, grid.TwoDimHex} {
		if _, _, err := CellWalk(k, chain.Params{Q: 2, C: 0}, 3); err == nil {
			t.Errorf("%v: invalid params accepted", k)
		}
		if _, _, err := CellWalk(k, chain.Params{Q: 0.6, C: 0.6}, 3); err == nil {
			t.Errorf("%v: q+c > 1 accepted", k)
		}
		if _, _, err := CellWalk(k, chain.Params{Q: 0.1, C: 0}, -1); err == nil {
			t.Errorf("%v: negative d accepted", k)
		}
	}
}
