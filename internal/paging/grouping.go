package paging

import (
	"fmt"
	"sort"
)

// Grouping is the generalization of Partition the paper's future-work
// section calls for: an ordered sequence of ring *groups* that need not be
// contiguous in distance. Group j (0-based) is polled in cycle j+1; all
// cells of every ring in the group are polled together.
//
// The paper's SDF partition is the special case of contiguous groups. When
// the stationary ring distribution is not monotone in distance (common for
// small c, where p_1 > p_0), non-contiguous groupings can strictly beat
// every contiguous one.
type Grouping [][]int

// ValidateGrouping checks that g covers rings 0..numRings−1 exactly once
// with every group non-empty and at most maxGroups groups (maxGroups ≤ 0
// means unconstrained).
func (g Grouping) Validate(numRings, maxGroups int) error {
	if len(g) == 0 {
		return fmt.Errorf("paging: empty grouping")
	}
	if maxGroups > 0 && len(g) > maxGroups {
		return fmt.Errorf("paging: %d groups exceed delay bound %d", len(g), maxGroups)
	}
	seen := make([]bool, numRings)
	for j, group := range g {
		if len(group) == 0 {
			return fmt.Errorf("paging: group %d empty", j)
		}
		for _, r := range group {
			if r < 0 || r >= numRings {
				return fmt.Errorf("paging: group %d contains ring %d outside [0,%d)", j, r, numRings)
			}
			if seen[r] {
				return fmt.Errorf("paging: ring %d in two groups", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("paging: ring %d uncovered", r)
		}
	}
	return nil
}

// GroupCells returns the number of cells polled in each group.
func (g Grouping) GroupCells(ringSizes []int) []int {
	out := make([]int, len(g))
	for j, group := range g {
		for _, r := range group {
			out[j] += ringSizes[r]
		}
	}
	return out
}

// ExpectedCells returns the expected number of cells polled per call:
// Σ_j P(terminal in group j) · (cells polled through group j).
func (g Grouping) ExpectedCells(ringSizes []int, pi []float64) float64 {
	cells := g.GroupCells(ringSizes)
	cum := 0
	e := 0.0
	for j, group := range g {
		cum += cells[j]
		mass := 0.0
		for _, r := range group {
			mass += pi[r]
		}
		e += float64(mass * float64(cum))
	}
	return e
}

// ExpectedDelay returns the expected polling cycles per call.
func (g Grouping) ExpectedDelay(pi []float64) float64 {
	e := 0.0
	for j, group := range g {
		mass := 0.0
		for _, r := range group {
			mass += pi[r]
		}
		e += float64(mass * float64(j+1))
	}
	return e
}

// RingGroup returns, for each ring index, the group that polls it.
func (g Grouping) RingGroup(numRings int) []int {
	out := make([]int, numRings)
	for j, group := range g {
		for _, r := range group {
			out[r] = j
		}
	}
	return out
}

// FromPartition converts a contiguous Partition into the equivalent
// Grouping.
func FromPartition(p Partition) Grouping {
	g := make(Grouping, len(p))
	for j, s := range p {
		for r := s.FirstRing; r <= s.LastRing; r++ {
			g[j] = append(g[j], r)
		}
	}
	return g
}

// ProbOrderDP computes the minimum-expected-cells grouping under a delay
// bound of m cycles (m ≤ 0 unbounded): rings are sorted by decreasing
// per-cell probability p_i/N(r_i) — the optimal polling order of Rose &
// Yates when each cell of ring i is equally likely — and the sorted
// sequence is cut into at most m consecutive groups by the same dynamic
// program as OptimalDP. An exchange argument shows an optimal ring-whole
// grouping is always consecutive in this order, so the result is optimal
// over ALL groupings, contiguous or not.
func ProbOrderDP(ringSizes []int, pi []float64, m int) Grouping {
	n := len(ringSizes)
	if len(pi) != n {
		panic(fmt.Sprintf("paging: %d probabilities for %d rings", len(pi), n))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa := pi[order[a]] / float64(ringSizes[order[a]])
		pb := pi[order[b]] / float64(ringSizes[order[b]])
		return pa > pb
	})

	l := n
	if m > 0 && m < l {
		l = m
	}
	// Prefix sums over the sorted order.
	cells := make([]int, n+1)
	mass := make([]float64, n+1)
	for i, r := range order {
		cells[i+1] = cells[i] + ringSizes[r]
		mass[i+1] = mass[i] + pi[r]
	}
	const inf = 1e308
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
				if cost[j-1][k] >= inf {
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
	bestJ := 1
	for j := 2; j <= l; j++ {
		if cost[j][n] < cost[bestJ][n] {
			bestJ = j
		}
	}
	// Reconstruct cut points, then materialize groups in sorted order.
	cuts := make([]int, 0, bestJ)
	i := n
	for j := bestJ; j >= 1; j-- {
		cuts = append(cuts, i)
		i = prev[j][i]
	}
	// cuts are collected from the back; reverse.
	for a, b := 0, len(cuts)-1; a < b; a, b = a+1, b-1 {
		cuts[a], cuts[b] = cuts[b], cuts[a]
	}
	g := make(Grouping, 0, bestJ)
	start := 0
	for _, end := range cuts {
		group := make([]int, end-start)
		copy(group, order[start:end])
		sort.Ints(group)
		g = append(g, group)
		start = end
	}
	return g
}
