package locman

import (
	"repro/internal/baseline"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
)

// DelayDistribution returns the probability that a call is resolved in
// exactly cycle j+1 (index j) when operating at threshold d.
func DelayDistribution(cfg Config, d int) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg.internal().DelayDistribution(d)
}

// OptimizeMeanDelay finds the cheapest (threshold, delay-bound) pair whose
// *expected* paging delay does not exceed meanDelay cycles — a soft-QoS
// alternative to the paper's worst-case bound. The chosen worst-case bound
// is the returned Breakdown's MaxCycles.
func OptimizeMeanDelay(cfg Config, meanDelay float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return core.OptimizeMeanDelay(cfg.internal(), meanDelay, cfg.MaxThreshold)
}

// BaselineAnalysis holds a baseline scheme's analytical costs; see
// SimulateBaseline for the simulated counterpart.
type BaselineAnalysis = baseline.Analysis

// AnalyzeBaseline computes the analytical per-slot costs of a baseline
// scheme (location-area, time-based or movement-based) under cfg's
// workload; distance-based is the paper's own mechanism, handled exactly
// by Evaluate/Optimize.
func AnalyzeBaseline(cfg Config, scheme BaselineScheme, param int) (BaselineAnalysis, error) {
	if err := cfg.Validate(); err != nil {
		return BaselineAnalysis{}, err
	}
	return baseline.Analyze(baselineConfig(cfg, scheme, param))
}

// OptimalLocationArea returns the location-area size (1-D) or cluster
// radius (2-D) minimizing the analytical LA-scheme cost, with its
// analysis. In 1-D this follows the classic square-root law
// L* ≈ √(qU/(cV)).
func OptimalLocationArea(cfg Config, maxParam int) (int, BaselineAnalysis, error) {
	if err := cfg.Validate(); err != nil {
		return 0, BaselineAnalysis{}, err
	}
	return baseline.OptimalLA(baselineConfig(cfg, BaselineLA, 1), maxParam)
}

// RingCycles returns, for each ring 0..d of the residing area, the 0-based
// polling cycle that pages it under cfg's partitioning scheme and delay
// bound — the data needed to visualize or implement the paging plan.
func RingCycles(cfg Config, d int) ([]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ic := cfg.internal()
	pi, err := chain.Stationary(ic.Model, ic.Params, d)
	if err != nil {
		return nil, err
	}
	rings := ic.Model.Grid().RingSizes(d)
	scheme := cfg.Partition
	if scheme == nil {
		scheme = SDF()
	}
	return scheme.Partition(rings, pi, cfg.MaxDelay).RingGroup(), nil
}

func baselineConfig(cfg Config, scheme BaselineScheme, param int) baseline.Config {
	kind := grid.TwoDimHex
	if cfg.Model == OneDimensional {
		kind = grid.OneDim
	}
	return baseline.Config{
		Kind:     kind,
		Params:   chain.Params{Q: cfg.MoveProb, C: cfg.CallProb},
		Costs:    core.Costs{Update: cfg.UpdateCost, Poll: cfg.PollCost},
		Scheme:   scheme,
		Param:    param,
		MaxDelay: cfg.MaxDelay,
	}
}
