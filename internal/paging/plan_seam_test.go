package paging_test

import (
	"repro/internal/core"
	"repro/internal/paging"
)

// partitionRow summarizes a partition for the plan golden.
func partitionRow(p paging.Partition, pi []float64) planRow {
	cells := make([]int, len(p))
	for j, s := range p {
		cells[j] = s.Cells
	}
	return planRow{
		ringCycle: p.RingGroup(),
		cells:     cells,
		expCells:  p.ExpectedCells(pi),
		expDelay:  p.ExpectedDelay(pi),
	}
}

// probOrderRow summarizes the probability-ordered plan for the golden.
func probOrderRow(rings []int, pi []float64, m int) planRow {
	return partitionRow(paging.ProbOrder{}.Partition(rings, pi, m), pi)
}

// groupedBreakdown evaluates cfg at threshold d under the
// probability-ordered plan.
func groupedBreakdown(cfg core.Config, d int) (core.Breakdown, error) {
	cfg.Scheme = paging.ProbOrder{}
	return cfg.Evaluate(d)
}
