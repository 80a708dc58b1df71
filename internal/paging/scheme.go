package paging

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// A Scheme partitions the rings 0..d of a residing area into at most m
// subareas. ringSizes[i] is N(r_i); pi gives the stationary ring
// probabilities p_0..p_d, which OptimalDP and ProbOrder read (the other
// schemes ignore it and accept pi == nil). m follows the paper's
// convention: the terminal must be found within m polling cycles;
// Unbounded means no constraint.
type Scheme interface {
	// Name identifies the scheme in reports and benchmarks.
	Name() string
	// Partition returns a valid partition with at most
	// min(len(ringSizes), m) subareas.
	Partition(ringSizes []int, pi []float64, m int) Partition
}

// SDF is the paper's shortest-distance-first partitioner (Section 2.2):
// ℓ = min(d+1, m) subareas, the first ℓ−1 holding γ = ⌊(d+1)/ℓ⌋ rings each
// and the last holding the remainder. Rings nearer the center — the more
// probable terminal locations under the random-walk model — are polled
// first.
type SDF struct{}

// Name implements Scheme.
func (SDF) Name() string { return "sdf" }

// Partition implements Scheme.
func (SDF) Partition(ringSizes []int, _ []float64, m int) Partition {
	d := len(ringSizes) - 1
	l := subareaCount(d, m)
	gamma := (d + 1) / l
	bounds := make([]int, l-1)
	for j := 1; j < l; j++ {
		bounds[j-1] = j * gamma
	}
	return build(ringSizes, bounds)
}

// Blanket polls the entire residing area in a single cycle regardless of m.
// It is the behaviour forced by m = 1 and the paging discipline of the
// LA-based baseline scheme [Xie, Tabbane & Goodman].
type Blanket struct{}

// Name implements Scheme.
func (Blanket) Name() string { return "blanket" }

// Partition implements Scheme.
func (Blanket) Partition(ringSizes []int, _ []float64, _ int) Partition {
	return build(ringSizes, nil)
}

// PerRing polls one ring per cycle (the unconstrained-delay discipline of
// the paper and of Madhow, Honig & Steiglitz). If m is binding, the last
// subarea absorbs the remaining rings so the delay bound still holds.
type PerRing struct{}

// Name implements Scheme.
func (PerRing) Name() string { return "per-ring" }

// Partition implements Scheme.
func (PerRing) Partition(ringSizes []int, _ []float64, m int) Partition {
	d := len(ringSizes) - 1
	l := subareaCount(d, m)
	bounds := make([]int, l-1)
	for j := 1; j < l; j++ {
		bounds[j-1] = j
	}
	return build(ringSizes, bounds)
}

// EqualCells greedily balances the number of cells per subarea: each of the
// ℓ subareas aims for g(d)/ℓ cells. In the 2-D model outer rings hold many
// more cells than inner ones, so this front-loads many inner rings into the
// first cycle — a natural alternative the paper's "other partitioning
// methods" remark invites.
type EqualCells struct{}

// Name implements Scheme.
func (EqualCells) Name() string { return "equal-cells" }

// Partition implements Scheme.
func (EqualCells) Partition(ringSizes []int, _ []float64, m int) Partition {
	d := len(ringSizes) - 1
	l := subareaCount(d, m)
	total := 0
	for _, n := range ringSizes {
		total += n
	}
	target := float64(total) / float64(l)
	var bounds []int
	cells := 0
	filled := 0 // subareas already closed
	for i := 0; i <= d; i++ {
		cells += ringSizes[i]
		// Close the current subarea once it reaches its share, keeping
		// enough rings for the remaining subareas.
		remainingRings := d - i
		remainingAreas := l - filled - 1
		if remainingAreas > 0 && float64(cells) >= target*float64(filled+1) && remainingRings >= remainingAreas {
			bounds = append(bounds, i+1)
			filled++
		}
	}
	return build(ringSizes, bounds)
}

// OptimalDP computes the partition minimizing the expected number of polled
// cells Σ_j π(A_j)·w_j subject to the delay bound, by dynamic programming
// over ring boundaries (the Rose & Yates optimal sequential paging
// structure applied to whole rings). It needs the stationary ring
// probabilities; with pi == nil it panics.
//
// The paper's future-work section calls for "an optimal method for
// partitioning the residing area"; this scheme is that extension, and the
// partition-ablation benchmark quantifies its gain over SDF.
type OptimalDP struct{}

// Name implements Scheme.
func (OptimalDP) Name() string { return "optimal-dp" }

// Partition implements Scheme.
func (OptimalDP) Partition(ringSizes []int, pi []float64, m int) Partition {
	checkProbs("OptimalDP", ringSizes, pi)
	return optimalCuts(ringSizes, pi, identity(len(ringSizes)), m)
}

// ProbOrder computes the minimum-expected-cells partition over all
// ring-whole groupings, contiguous or not, under a delay bound of m
// cycles: rings are sorted by decreasing per-cell probability p_i/N(r_i) —
// the optimal polling order of Rose & Yates when each cell of ring i is
// equally likely — and the sorted sequence is cut into at most m
// consecutive subareas by OptimalDP's dynamic program. An exchange
// argument shows an optimal ring-whole grouping is always consecutive in
// this order. It needs the stationary ring probabilities; with pi == nil
// it panics.
//
// Its subareas need not be contiguous in distance, so it is not
// registered: ByName, Names and every name-keyed caller see only the
// contiguous schemes.
type ProbOrder struct{}

// Name implements Scheme.
func (ProbOrder) Name() string { return "prob-order" }

// Partition implements Scheme.
func (ProbOrder) Partition(ringSizes []int, pi []float64, m int) Partition {
	checkProbs("ProbOrder", ringSizes, pi)
	order := identity(len(ringSizes))
	sort.SliceStable(order, func(a, b int) bool {
		pa := pi[order[a]] / float64(ringSizes[order[a]])
		pb := pi[order[b]] / float64(ringSizes[order[b]])
		return pa > pb
	})
	return optimalCuts(ringSizes, pi, order, m)
}

// checkProbs panics unless pi holds one probability per ring.
func checkProbs(scheme string, ringSizes []int, pi []float64) {
	if pi == nil {
		panic("paging: " + scheme + " requires ring probabilities")
	}
	if len(pi) != len(ringSizes) {
		panic(fmt.Sprintf("paging: %d probabilities for %d rings", len(pi), len(ringSizes)))
	}
}

// optimalCuts cuts the rings, taken in the given order, into at most
// min(d+1, m) consecutive subareas minimizing the expected number of
// polled cells Σ_j π(A_j)·w_j, by dynamic programming over cut points.
func optimalCuts(ringSizes []int, pi []float64, order []int, m int) Partition {
	n := len(order)
	l := subareaCount(n-1, m)

	// Prefix sums over the order: cells[i] = Σ_{k<i} N(r_order[k]),
	// mass[i] = Σ_{k<i} p_order[k].
	cells := make([]int, n+1)
	mass := make([]float64, n+1)
	for i, r := range order {
		cells[i+1] = cells[i] + ringSizes[r]
		mass[i+1] = mass[i] + pi[r]
	}

	// cost[j][i]: minimum expected polled cells covering the first i rings
	// of the order with exactly j subareas, where each subarea ending
	// before position i contributes π(A_j)·w_j = (mass over the
	// subarea)·(total cells through position i−1).
	const inf = math.MaxFloat64
	cost := make([][]float64, l+1)
	prev := make([][]int, l+1)
	for j := range cost {
		cost[j] = make([]float64, n+1)
		prev[j] = make([]int, n+1)
		for i := range cost[j] {
			cost[j][i] = inf
			prev[j][i] = -1
		}
	}
	cost[0][0] = 0
	for j := 1; j <= l; j++ {
		for i := j; i <= n; i++ {
			for k := j - 1; k < i; k++ {
				if cost[j-1][k] == inf {
					continue
				}
				c := cost[j-1][k] + float64((mass[i]-mass[k])*float64(cells[i]))
				if c < cost[j][i] {
					cost[j][i] = c
					prev[j][i] = k
				}
			}
		}
	}
	// Splitting a subarea never raises the cost, but ties are possible:
	// take the fewest subareas reaching the minimum.
	bestJ := 1
	for j := 2; j <= l; j++ {
		if cost[j][n] < cost[bestJ][n] {
			bestJ = j
		}
	}
	// Reconstruct the cut points, collected from the back.
	ends := make([]int, bestJ)
	i := n
	for j := bestJ; j >= 1; j-- {
		ends[j-1] = i
		i = prev[j][i]
	}
	return group(ringSizes, order, ends)
}

// schemes lists every registered scheme in resolution order; ByName and
// Names both read it, so the error message can never drift from the
// parser.
var schemes = []Scheme{SDF{}, Blanket{}, PerRing{}, EqualCells{}, OptimalDP{}}

// Names lists the names ByName resolves, in resolution order.
func Names() []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name()
	}
	return out
}

// ByName returns the named scheme, for CLI flag parsing. The error for
// an unknown name enumerates every valid one.
func ByName(name string) (Scheme, error) {
	for _, s := range schemes {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("paging: unknown scheme %q (valid schemes: %s)",
		name, strings.Join(Names(), ", "))
}
