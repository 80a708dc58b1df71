package paging

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/grid"
)

func stationary(t testing.TB, model chain.Model, q, c float64, d int) []float64 {
	t.Helper()
	pi, err := chain.Stationary(model, chain.Params{Q: q, C: c}, d)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

func TestGroupingValidate(t *testing.T) {
	rings := []int{1, 6, 12}
	good := Partition{{Rings: []int{0, 2}, Cells: 13}, {Rings: []int{1}, Cells: 6}}
	if err := good.Validate(rings, 2); err != nil {
		t.Errorf("valid non-contiguous partition rejected: %v", err)
	}
	bad := []struct {
		p     Partition
		rings []int
		m     int
	}{
		{Partition{}, rings, 2}, // empty
		{Partition{{Rings: []int{0}, Cells: 1}, {}}, rings[:1], 2},                                                    // empty subarea
		{Partition{{Rings: []int{0, 1}, Cells: 7}}, rings, 2},                                                         // uncovered ring
		{Partition{{Rings: []int{0, 0}, Cells: 2}, {Rings: []int{1, 2}, Cells: 18}}, rings, 2},                        // duplicate
		{Partition{{Rings: []int{0, 3}, Cells: 1}, {Rings: []int{1, 2}, Cells: 18}}, rings, 2},                        // out of range
		{Partition{{Rings: []int{0}, Cells: 1}, {Rings: []int{1}, Cells: 6}, {Rings: []int{2}, Cells: 12}}, rings, 2}, // too many subareas
		{Partition{{Rings: []int{-1}, Cells: 0}, {Rings: []int{0, 1, 2}, Cells: 19}}, rings, 2},                       // negative ring
		{Partition{{Rings: []int{2, 0}, Cells: 13}, {Rings: []int{1}, Cells: 6}}, rings, 2},                           // descending
		{Partition{{Rings: []int{0, 2}, Cells: 12}, {Rings: []int{1}, Cells: 6}}, rings, 2},                           // wrong cell count
	}
	for i, tc := range bad {
		if err := tc.p.Validate(tc.rings, tc.m); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestProbOrderDPValid(t *testing.T) {
	pi := stationary(t, chain.TwoDimExact, 0.05, 0.01, 10)
	rings := grid.TwoDimHex.RingSizes(10)
	for m := 0; m <= 11; m++ {
		if err := (ProbOrder{}).Partition(rings, pi, m).Validate(rings, m); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// TestProbOrderDPNeverWorseThanContiguous: the probability-ordered DP
// optimizes over a superset of the contiguous partitions, so it can never
// be worse than OptimalDP or SDF. (At m=1 all schemes poll every cell;
// strict gains appear at intermediate m.)
func TestProbOrderDPNeverWorseThanContiguous(t *testing.T) {
	cases := []struct {
		model chain.Model
		q, c  float64
		d     int
	}{
		{chain.TwoDimExact, 0.05, 0.01, 10},
		{chain.TwoDimExact, 0.4, 0.02, 12},
		{chain.OneDim, 0.05, 0.01, 8},
		{chain.TwoDimApprox, 0.01, 0.05, 6},
	}
	for _, tc := range cases {
		pi := stationary(t, tc.model, tc.q, tc.c, tc.d)
		rings := tc.model.Grid().RingSizes(tc.d)
		for m := 1; m <= tc.d+1; m++ {
			grouped := ProbOrder{}.Partition(rings, pi, m).ExpectedCells(pi)
			contig := OptimalDP{}.Partition(rings, pi, m).ExpectedCells(pi)
			sdf := SDF{}.Partition(rings, nil, m).ExpectedCells(pi)
			if grouped > contig+1e-9 {
				t.Errorf("%v d=%d m=%d: grouped %v worse than contiguous DP %v",
					tc.model, tc.d, m, grouped, contig)
			}
			if grouped > sdf+1e-9 {
				t.Errorf("%v d=%d m=%d: grouped %v worse than SDF %v",
					tc.model, tc.d, m, grouped, sdf)
			}
		}
	}
}

func TestProbOrderDPStrictlyBeatsSDFSomewhere(t *testing.T) {
	// With small c the ring mass peaks away from the centre (at ring 3
	// here), though the per-cell mass still falls with distance, so the
	// probability order is the distance order and the gain over SDF comes
	// from where the dynamic program cuts it.
	pi := stationary(t, chain.TwoDimExact, 0.3, 0.005, 12)
	rings := grid.TwoDimHex.RingSizes(12)
	improved := false
	for m := 2; m <= 6; m++ {
		grouped := ProbOrder{}.Partition(rings, pi, m).ExpectedCells(pi)
		sdf := SDF{}.Partition(rings, nil, m).ExpectedCells(pi)
		if grouped < sdf-1e-9 {
			improved = true
		}
	}
	if !improved {
		t.Error("probability-ordered DP never improved on SDF across m=2..6")
	}
}

func TestProbOrderDPMonotoneInDelay(t *testing.T) {
	pi := stationary(t, chain.TwoDimExact, 0.1, 0.02, 10)
	rings := grid.TwoDimHex.RingSizes(10)
	prev := math.Inf(1)
	for m := 1; m <= 11; m++ {
		e := ProbOrder{}.Partition(rings, pi, m).ExpectedCells(pi)
		if e > prev+1e-9 {
			t.Errorf("m=%d: %v > %v", m, e, prev)
		}
		prev = e
	}
}

func TestProbOrderDPUnboundedSortsPerCell(t *testing.T) {
	// Unbounded: one ring per group, ordered by per-cell probability.
	pi := stationary(t, chain.TwoDimExact, 0.05, 0.01, 6)
	rings := grid.TwoDimHex.RingSizes(6)
	part := ProbOrder{}.Partition(rings, pi, 0)
	if len(part) != 7 {
		t.Fatalf("%d subareas", len(part))
	}
	last := math.Inf(1)
	for j, s := range part {
		if len(s.Rings) != 1 {
			t.Fatalf("subarea %d has %d rings", j, len(s.Rings))
		}
		r := s.Rings[0]
		perCell := pi[r] / float64(rings[r])
		if perCell > last+1e-15 {
			t.Errorf("group %d (ring %d) out of per-cell order", j, r)
		}
		last = perCell
	}
}

func TestProbOrderDPProperty(t *testing.T) {
	f := func(qr, cr uint16, dr, mr uint8) bool {
		q := float64(qr)/65535.0*0.8 + 0.01
		c := (1 - q) * float64(cr) / 65535.0 * 0.5
		d := int(dr%12) + 1
		m := int(mr % uint8(d+2)) // 0..d+1
		pi, err := chain.Stationary(chain.TwoDimExact, chain.Params{Q: q, C: c}, d)
		if err != nil {
			return false
		}
		rings := grid.TwoDimHex.RingSizes(d)
		part := ProbOrder{}.Partition(rings, pi, m)
		if part.Validate(rings, m) != nil {
			return false
		}
		return part.ExpectedCells(pi) <= OptimalDP{}.Partition(rings, pi, m).ExpectedCells(pi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestProbOrderDPPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ProbOrder{}.Partition([]int{1, 6}, []float64{1}, 1)
}

func TestGroupingRingGroup(t *testing.T) {
	part := Partition{{Rings: []int{1, 3}}, {Rings: []int{0}}, {Rings: []int{2}}}
	rg := part.RingGroup()
	want := []int{1, 0, 2, 0}
	for i, w := range want {
		if rg[i] != w {
			t.Errorf("RingGroup[%d] = %d, want %d", i, rg[i], w)
		}
	}
}
