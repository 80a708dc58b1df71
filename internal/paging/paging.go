// Package paging implements the delay-constrained terminal paging mechanism
// of Section 2.2 of Akyildiz & Ho (SIGCOMM '95): partitioning a residing
// area of threshold distance d into at most m subareas of whole rings and
// polling them in order, one polling cycle per subarea.
//
// The paper's partitioner is shortest-distance-first (SDF): with
// ℓ = min(d+1, m) subareas and γ = ⌊(d+1)/ℓ⌋, subarea A_j (1 ≤ j ≤ ℓ−1)
// holds rings r_{(j−1)γ} .. r_{jγ−1} and A_ℓ the remaining rings. The paper
// notes its optimization method applies to any partitioning scheme; this
// package therefore also provides the single-shot, per-ring, equal-cell,
// dynamic-programming-optimal and probability-ordered partitioners used as
// ablations.
package paging

import (
	"fmt"
	"sort"
)

// Unbounded is the MaxDelay value meaning the paging delay is not
// constrained: the residing area is partitioned into one ring per subarea
// (the paper's "no delay bound" curves, delay = ∞).
const Unbounded = 0

// Subarea is a group of whole rings polled in a single polling cycle.
type Subarea struct {
	// Rings lists the subarea's ring indices in ascending order.
	Rings []int
	// Cells is the number of cells in the subarea, Σ N(r_i) over its rings.
	Cells int
}

// Partition is an ordered list of subareas covering rings 0..d exactly
// once. Subareas are polled in slice order; finding the terminal in
// subarea j (0-based index j−1) costs the cumulative number of cells polled
// through that subarea and takes j polling cycles. The registered schemes
// build contiguous subareas in distance order; ProbOrder may group rings
// out of distance order.
type Partition []Subarea

// Rings returns d+1, the total number of rings covered.
func (p Partition) Rings() int {
	n := 0
	for _, s := range p {
		n += len(s.Rings)
	}
	return n
}

// Cells returns the total number of cells covered, g(d).
func (p Partition) Cells() int {
	total := 0
	for _, s := range p {
		total += s.Cells
	}
	return total
}

// CumulativeCells returns w_j for each subarea j (paper eq. 64): the number
// of cells polled by the time the terminal is found in subarea j, i.e. the
// prefix sums of subarea sizes.
func (p Partition) CumulativeCells() []int {
	w := make([]int, len(p))
	sum := 0
	for j, s := range p {
		sum += s.Cells
		w[j] = sum
	}
	return w
}

// SubareaProbs returns π_j = Σ_{r_i ∈ A_j} p_i for each subarea (paper
// eq. 63), given the stationary ring probabilities p_0..p_d.
func (p Partition) SubareaProbs(pi []float64) []float64 {
	probs := make([]float64, len(p))
	for j, s := range p {
		for _, i := range s.Rings {
			probs[j] += pi[i]
		}
	}
	return probs
}

// ExpectedCells returns the expected number of cells polled per call,
// Σ_j π_j·w_j — the paging cost divided by c·V (paper eq. 65).
func (p Partition) ExpectedCells(pi []float64) float64 {
	w := p.CumulativeCells()
	probs := p.SubareaProbs(pi)
	e := 0.0
	for j := range p {
		e += float64(probs[j] * float64(w[j]))
	}
	return e
}

// ExpectedDelay returns the expected number of polling cycles per call,
// Σ_j π_j·j (1-based j). The maximum delay is len(p) cycles.
func (p Partition) ExpectedDelay(pi []float64) float64 {
	probs := p.SubareaProbs(pi)
	e := 0.0
	for j := range p {
		e += float64(probs[j] * float64(j+1))
	}
	return e
}

// RingGroup returns, for each ring index, the 0-based subarea that polls
// it.
func (p Partition) RingGroup() []int {
	out := make([]int, p.Rings())
	for j, s := range p {
		for _, r := range s.Rings {
			out[r] = j
		}
	}
	return out
}

// Validate checks that the partition covers rings 0..len(ringSizes)−1
// exactly once, with every subarea non-empty, its rings ascending and its
// cell count consistent with the ring sizes, in at most m subareas
// (m = Unbounded: any number).
func (p Partition) Validate(ringSizes []int, m int) error {
	if len(p) == 0 {
		return fmt.Errorf("paging: empty partition")
	}
	if m > Unbounded && len(p) > m {
		return fmt.Errorf("paging: %d subareas exceed delay bound %d", len(p), m)
	}
	seen := make([]bool, len(ringSizes))
	for j, s := range p {
		if len(s.Rings) == 0 {
			return fmt.Errorf("paging: subarea %d empty", j)
		}
		cells := 0
		for k, r := range s.Rings {
			if r < 0 || r >= len(ringSizes) {
				return fmt.Errorf("paging: subarea %d holds ring %d outside [0,%d)", j, r, len(ringSizes))
			}
			if k > 0 && r <= s.Rings[k-1] {
				return fmt.Errorf("paging: subarea %d rings not ascending at ring %d", j, r)
			}
			if seen[r] {
				return fmt.Errorf("paging: ring %d in two subareas", r)
			}
			seen[r] = true
			cells += ringSizes[r]
		}
		if cells != s.Cells {
			return fmt.Errorf("paging: subarea %d records %d cells, rings total %d", j, s.Cells, cells)
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("paging: ring %d uncovered", r)
		}
	}
	return nil
}

// subareaCount returns ℓ = min(d+1, m) (paper eq. 2), treating
// m = Unbounded (or any m ≥ d+1) as no constraint.
func subareaCount(d, m int) int {
	if m <= Unbounded || m > d+1 {
		return d + 1
	}
	return m
}

// identity returns the rings 0..n−1 in distance order.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// build assembles a contiguous Partition from ring-index boundaries:
// bounds[j] is the first ring of subarea j+1 (so len(bounds) = ℓ−1).
func build(ringSizes []int, bounds []int) Partition {
	return group(ringSizes, identity(len(ringSizes)), append(bounds, len(ringSizes)))
}

// group assembles a Partition from an ordering of the rings and the end
// position in that order of each subarea: subarea j holds
// order[ends[j−1]:ends[j]], its rings sorted ascending. It takes ownership
// of order, which backs every subarea's ring list.
func group(ringSizes []int, order []int, ends []int) Partition {
	part := make(Partition, len(ends))
	start := 0
	for j, end := range ends {
		rings := order[start:end:end]
		sort.Ints(rings)
		cells := 0
		for _, r := range rings {
			cells += ringSizes[r]
		}
		part[j] = Subarea{Rings: rings, Cells: cells}
		start = end
	}
	return part
}
