package paging

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/grid"
)

func uniformProbs(n int) []float64 {
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	return pi
}

// span returns a subarea's first and last ring and whether its rings run
// consecutively between them.
func span(s Subarea) (first, last int, contiguous bool) {
	first, last = s.Rings[0], s.Rings[len(s.Rings)-1]
	return first, last, last-first+1 == len(s.Rings)
}

func TestSDFPaperExample(t *testing.T) {
	// d=1, m=2 in 1-D: A_1 = {r_0}, A_2 = {r_1}; w = (1, 3).
	rings := grid.OneDim.RingSizes(1)
	part := SDF{}.Partition(rings, nil, 2)
	if len(part) != 2 {
		t.Fatalf("ℓ = %d, want 2", len(part))
	}
	w := part.CumulativeCells()
	if w[0] != 1 || w[1] != 3 {
		t.Errorf("w = %v, want [1 3]", w)
	}
	if err := part.Validate(rings, 2); err != nil {
		t.Error(err)
	}
}

func TestSDFSubareaCountEquation2(t *testing.T) {
	// ℓ = min(d+1, m) (paper eq. 2).
	for d := 0; d <= 20; d++ {
		rings := grid.TwoDimHex.RingSizes(d)
		for m := 1; m <= 25; m++ {
			part := SDF{}.Partition(rings, nil, m)
			want := d + 1
			if m < want {
				want = m
			}
			if len(part) != want {
				t.Errorf("d=%d m=%d: ℓ=%d, want %d", d, m, len(part), want)
			}
		}
		// Unbounded: one ring per subarea.
		part := SDF{}.Partition(rings, nil, Unbounded)
		if len(part) != d+1 {
			t.Errorf("d=%d unbounded: ℓ=%d, want %d", d, len(part), d+1)
		}
		for j, s := range part {
			if len(s.Rings) != 1 || s.Rings[0] != j {
				t.Errorf("d=%d unbounded: subarea %d = %+v", d, j, s)
			}
		}
	}
}

func TestSDFRingAssignment(t *testing.T) {
	// Paper Section 2.2: with γ = ⌊(d+1)/ℓ⌋, subarea A_j (1 ≤ j ≤ ℓ−1)
	// holds rings r_{(j−1)γ} .. r_{jγ−1}; the last subarea the rest.
	for d := 0; d <= 15; d++ {
		for m := 1; m <= 18; m++ {
			rings := grid.TwoDimHex.RingSizes(d)
			part := SDF{}.Partition(rings, nil, m)
			l := len(part)
			gamma := (d + 1) / l
			for j := 0; j < l-1; j++ {
				if first, last, ok := span(part[j]); !ok || first != j*gamma || last != (j+1)*gamma-1 {
					t.Errorf("d=%d m=%d subarea %d: got rings %v, want %d..%d",
						d, m, j, part[j].Rings, j*gamma, (j+1)*gamma-1)
				}
			}
			if _, last, _ := span(part[l-1]); last != d {
				t.Errorf("d=%d m=%d: last subarea ends at %d", d, m, last)
			}
			if err := part.Validate(rings, m); err != nil {
				t.Errorf("d=%d m=%d: %v", d, m, err)
			}
		}
	}
}

// TestAllSchemesProduceValidPartitions: every registered scheme returns
// a valid partition within the delay bound whose subareas are contiguous
// and polled in distance order (Validate accepts any grouping, so the
// order is asserted here).
func TestAllSchemesProduceValidPartitions(t *testing.T) {
	for _, k := range []grid.Kind{grid.OneDim, grid.TwoDimHex} {
		for d := 0; d <= 12; d++ {
			rings := k.RingSizes(d)
			pi := uniformProbs(d + 1)
			for m := 0; m <= 15; m++ {
				for _, name := range Names() {
					s, err := ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					part := s.Partition(rings, pi, m)
					if err := part.Validate(rings, m); err != nil {
						t.Errorf("%s %v d=%d m=%d: %v", name, k, d, m, err)
					}
					rg := part.RingGroup()
					for r := 1; r < len(rg); r++ {
						if rg[r] != rg[r-1] && rg[r] != rg[r-1]+1 {
							t.Errorf("%s %v d=%d m=%d: ring→subarea %v not contiguous in distance order",
								name, k, d, m, rg)
							break
						}
					}
					if got, want := part.Cells(), k.DiskSize(d); got != want {
						t.Errorf("%s %v d=%d m=%d: covers %d cells, want %d",
							s.Name(), k, d, m, got, want)
					}
				}
			}
		}
	}
}

func TestBlanketSingleCycle(t *testing.T) {
	rings := grid.TwoDimHex.RingSizes(5)
	part := Blanket{}.Partition(rings, nil, 7)
	if len(part) != 1 {
		t.Fatalf("blanket: %d subareas", len(part))
	}
	if part[0].Cells != grid.TwoDimHex.DiskSize(5) {
		t.Errorf("blanket cells = %d", part[0].Cells)
	}
}

func TestExpectedCellsBlanketEqualsDisk(t *testing.T) {
	// With one subarea the expected polled cells is g(d) regardless of pi.
	pi, err := chain.Stationary(chain.TwoDimExact, chain.Params{Q: 0.1, C: 0.02}, 6)
	if err != nil {
		t.Fatal(err)
	}
	rings := grid.TwoDimHex.RingSizes(6)
	part := Blanket{}.Partition(rings, nil, 1)
	if got, want := part.ExpectedCells(pi), float64(grid.TwoDimHex.DiskSize(6)); math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedCells = %v, want %v", got, want)
	}
	if got := part.ExpectedDelay(pi); math.Abs(got-1) > 1e-12 {
		t.Errorf("ExpectedDelay = %v, want 1", got)
	}
}

func TestSubareaProbsSumToOne(t *testing.T) {
	pi, err := chain.Stationary(chain.OneDim, chain.Params{Q: 0.2, C: 0.05}, 9)
	if err != nil {
		t.Fatal(err)
	}
	rings := grid.OneDim.RingSizes(9)
	for m := 1; m <= 10; m++ {
		part := SDF{}.Partition(rings, nil, m)
		sum := 0.0
		for _, p := range part.SubareaProbs(pi) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("m=%d: subarea probs sum to %v", m, sum)
		}
	}
}

func TestMorePagingDelayNeverIncreasesOptimalCells(t *testing.T) {
	// Under the DP-optimal partitioner a looser delay bound can never
	// increase the expected polled cells: every partition with ≤ m subareas
	// is also feasible at m+1. Note this is NOT true of the paper's SDF
	// scheme, whose floor-based ring allotment is non-monotone in m — the
	// source of the "discontinuities" the paper notes in its cost curves.
	pi, err := chain.Stationary(chain.TwoDimExact, chain.Params{Q: 0.05, C: 0.01}, 10)
	if err != nil {
		t.Fatal(err)
	}
	rings := grid.TwoDimHex.RingSizes(10)
	prev := math.Inf(1)
	for m := 1; m <= 11; m++ {
		e := OptimalDP{}.Partition(rings, pi, m).ExpectedCells(pi)
		if e > prev+1e-9 {
			t.Errorf("m=%d: expected cells %v > previous %v", m, e, prev)
		}
		prev = e
	}
	// And SDF is indeed non-monotone for this configuration: document the
	// artifact so a future "fix" doesn't silently change published curves.
	e5 := SDF{}.Partition(rings, nil, 5).ExpectedCells(pi)
	e6 := SDF{}.Partition(rings, nil, 6).ExpectedCells(pi)
	if e6 <= e5 {
		t.Logf("note: SDF m=5→6 non-monotonicity no longer present (%v → %v)", e5, e6)
	}
}

func TestOptimalDPNeverWorse(t *testing.T) {
	// The DP partition is optimal over ring partitions, so it can never do
	// worse than SDF, per-ring or equal-cells under the same delay bound.
	cases := []struct {
		model chain.Model
		p     chain.Params
		d     int
	}{
		{chain.OneDim, chain.Params{Q: 0.05, C: 0.01}, 8},
		{chain.TwoDimExact, chain.Params{Q: 0.05, C: 0.01}, 8},
		{chain.TwoDimExact, chain.Params{Q: 0.4, C: 0.05}, 12},
		{chain.TwoDimApprox, chain.Params{Q: 0.01, C: 0.05}, 5},
	}
	for _, tc := range cases {
		pi, err := chain.Stationary(tc.model, tc.p, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		rings := tc.model.Grid().RingSizes(tc.d)
		for m := 1; m <= tc.d+1; m++ {
			opt := OptimalDP{}.Partition(rings, pi, m).ExpectedCells(pi)
			for _, s := range []Scheme{SDF{}, PerRing{}, EqualCells{}} {
				other := s.Partition(rings, pi, m).ExpectedCells(pi)
				if opt > other+1e-9 {
					t.Errorf("%v d=%d m=%d: DP %v worse than %s %v",
						tc.model, tc.d, m, opt, s.Name(), other)
				}
			}
		}
	}
}

func TestOptimalDPPropertyNeverWorseThanSDF(t *testing.T) {
	f := func(qr, cr uint16, dr, mr uint8) bool {
		q := float64(qr)/65535.0*0.8 + 0.01
		c := (1 - q) * float64(cr) / 65535.0 * 0.5
		d := int(dr%15) + 1
		m := int(mr%uint8(d+1)) + 1
		pi, err := chain.Stationary(chain.TwoDimExact, chain.Params{Q: q, C: c}, d)
		if err != nil {
			return false
		}
		rings := grid.TwoDimHex.RingSizes(d)
		opt := OptimalDP{}.Partition(rings, pi, m)
		if opt.Validate(rings, m) != nil {
			return false
		}
		return opt.ExpectedCells(pi) <= SDF{}.Partition(rings, nil, m).ExpectedCells(pi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOptimalDPPanicsWithoutProbs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	OptimalDP{}.Partition(grid.OneDim.RingSizes(3), nil, 2)
}

func TestValidateCatchesBadPartitions(t *testing.T) {
	rings := grid.OneDim.RingSizes(2) // [1 2 2]
	bad := []Partition{
		{},                                  // empty
		{{Rings: []int{1, 2}, Cells: 4}},    // gap at 0
		{{Rings: []int{0, 1}, Cells: 3}},    // missing ring 2
		{{Rings: []int{0, 1, 2}, Cells: 4}}, // wrong cell count
		{{Rings: []int{0}, Cells: 1}, {Rings: []int{0, 1, 2}, Cells: 5}}, // overlap
		{{Rings: []int{0, 1, 2, 3}, Cells: 5}},                           // beyond range
	}
	for i, p := range bad {
		if err := p.Validate(rings, Unbounded); err == nil {
			t.Errorf("case %d: invalid partition accepted: %v", i, p)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sdf", "blanket", "per-ring", "equal-cells", "optimal-dp"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"nope", ProbOrder{}.Name()} {
		if _, err := ByName(name); err == nil {
			t.Errorf("unregistered name %q accepted", name)
		}
	}
}

func TestPartitionRings(t *testing.T) {
	rings := grid.TwoDimHex.RingSizes(4)
	part := SDF{}.Partition(rings, nil, 2)
	if got := part.Rings(); got != 5 {
		t.Errorf("Rings() = %d, want 5", got)
	}
	var empty Partition
	if empty.Rings() != 0 {
		t.Error("empty partition Rings() != 0")
	}
}
