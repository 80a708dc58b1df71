package core

import (
	"fmt"
	"math"

	"repro/internal/chain"
)

// DelayDistribution returns the probability that a call is resolved in
// exactly cycle j+1 (index j) when operating at threshold d under the
// configured partitioning scheme and delay bound: the per-subarea
// probabilities π_j of paper eq. 63.
func (c Config) DelayDistribution(d int) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pi, err := chain.Stationary(c.Model, c.Params, d)
	if err != nil {
		return nil, err
	}
	rings := c.Model.Grid().RingSizes(d)
	part := c.scheme().Partition(rings, pi, c.MaxDelay)
	return part.SubareaProbs(pi), nil
}

// OptimizeMeanDelay finds the cheapest operating point (d, m) subject to a
// bound on the *expected* paging delay instead of the paper's worst-case
// bound: it scans thresholds 0..maxD and, for each, every worst-case bound
// m from 1 to d+1, keeping the cheapest point whose expected delay (under
// the configured scheme) does not exceed meanDelay cycles.
//
// This answers a question the paper's worst-case formulation cannot: "I
// can tolerate 1.5 polling cycles on average — what is the cheapest
// configuration?". The returned Breakdown's MaxCycles is the chosen m.
func OptimizeMeanDelay(cfg Config, meanDelay float64, maxD int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if meanDelay < 1 {
		return Result{}, fmt.Errorf("core: mean delay bound %v below 1 cycle (every call takes at least one)", meanDelay)
	}
	if maxD <= 0 {
		maxD = DefaultMaxThreshold
	}
	res := Result{}
	best := Breakdown{Total: math.Inf(1)}
	for d := 0; d <= maxD; d++ {
		pi, err := chain.Stationary(cfg.Model, cfg.Params, d)
		if err != nil {
			return Result{}, err
		}
		for m := 1; m <= d+1; m++ {
			mcfg := cfg
			mcfg.MaxDelay = m
			b := mcfg.evaluateWith(pi, d)
			if b.ExpectedDelay > meanDelay {
				continue
			}
			res.Evaluations++
			if b.Total < best.Total {
				best = b
			}
		}
	}
	if math.IsInf(best.Total, 1) {
		return Result{}, fmt.Errorf("core: no operating point meets mean delay %v", meanDelay)
	}
	res.Best = best
	return res, nil
}
