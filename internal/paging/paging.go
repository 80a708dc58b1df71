// Package paging implements the delay-constrained terminal paging mechanism
// of Section 2.2 of Akyildiz & Ho (SIGCOMM '95): partitioning a residing
// area of threshold distance d into at most m subareas of whole rings and
// polling them in order, one polling cycle per subarea.
//
// The paper's partitioner is shortest-distance-first (SDF): with
// ℓ = min(d+1, m) subareas and γ = ⌊(d+1)/ℓ⌋, subarea A_j (1 ≤ j ≤ ℓ−1)
// holds rings r_{(j−1)γ} .. r_{jγ−1} and A_ℓ the remaining rings. The paper
// notes its optimization method applies to any partitioning scheme; this
// package therefore also provides the single-shot, per-ring, equal-cell and
// dynamic-programming-optimal partitioners used as ablations.
package paging

import (
	"fmt"
)

// Unbounded is the MaxDelay value meaning the paging delay is not
// constrained: the residing area is partitioned into one ring per subarea
// (the paper's "no delay bound" curves, delay = ∞).
const Unbounded = 0

// Subarea is a contiguous group of rings polled in a single polling cycle.
type Subarea struct {
	// FirstRing and LastRing are the inclusive ring-index bounds.
	FirstRing, LastRing int
	// Cells is the number of cells in the subarea, Σ N(r_i) over its rings.
	Cells int
}

// Partition is an ordered list of subareas covering rings 0..d exactly
// once. Subareas are polled in slice order; finding the terminal in
// subarea j (0-based index j−1) costs the cumulative number of cells polled
// through that subarea and takes j polling cycles.
type Partition []Subarea

// Rings returns d+1, the total number of rings covered.
func (p Partition) Rings() int {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1].LastRing + 1
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
		for i := s.FirstRing; i <= s.LastRing; i++ {
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

// Validate checks that the partition covers rings 0..d contiguously, in
// increasing order, with consistent cell counts for the given ring sizes.
func (p Partition) Validate(ringSizes []int) error {
	if len(p) == 0 {
		return fmt.Errorf("paging: empty partition")
	}
	next := 0
	for j, s := range p {
		if s.FirstRing != next {
			return fmt.Errorf("paging: subarea %d starts at ring %d, want %d", j, s.FirstRing, next)
		}
		if s.LastRing < s.FirstRing {
			return fmt.Errorf("paging: subarea %d has LastRing < FirstRing", j)
		}
		cells := 0
		for i := s.FirstRing; i <= s.LastRing; i++ {
			if i >= len(ringSizes) {
				return fmt.Errorf("paging: subarea %d exceeds ring range", j)
			}
			cells += ringSizes[i]
		}
		if cells != s.Cells {
			return fmt.Errorf("paging: subarea %d records %d cells, rings total %d", j, s.Cells, cells)
		}
		next = s.LastRing + 1
	}
	if next != len(ringSizes) {
		return fmt.Errorf("paging: partition covers %d rings, want %d", next, len(ringSizes))
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

// build assembles a Partition from ring-index boundaries: bounds[j] is the
// first ring of subarea j+1 (so len(bounds) = ℓ−1).
func build(ringSizes []int, bounds []int) Partition {
	part := make(Partition, 0, len(bounds)+1)
	first := 0
	flush := func(last int) {
		cells := 0
		for i := first; i <= last; i++ {
			cells += ringSizes[i]
		}
		part = append(part, Subarea{FirstRing: first, LastRing: last, Cells: cells})
		first = last + 1
	}
	for _, b := range bounds {
		flush(b - 1)
	}
	flush(len(ringSizes) - 1)
	return part
}
