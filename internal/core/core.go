// Package core implements the primary contribution of Akyildiz & Ho
// (SIGCOMM '95): the combined cost model for distance-based location update
// and delay-constrained terminal paging (Section 5), and the selection of
// the optimal update threshold distance (Section 6).
//
// Given a mobility model, per-slot parameters (q, c), unit costs (U for a
// location update, V for polling one cell) and a maximum paging delay of m
// polling cycles, the per-slot average costs are
//
//	Cu(d)   = p_{d,d} · a_{d,d+1} · U                 (eq. 61)
//	Cv(d,m) = c · V · Σ_j π_j · w_j                   (eqs. 62–65)
//	C_T(d,m) = Cu(d) + Cv(d,m)                        (eq. 66)
//
// where p_{i,d} are the stationary ring probabilities of the distance chain,
// π_j the per-subarea probabilities and w_j the cumulative polled cells of
// the paging partition. The optimal threshold d* minimizes C_T; the paper
// notes the curve may have local minima under SDF partitioning, so the
// default optimizer is an exhaustive scan over 0..D (Section 6's first
// method), with simulated annealing as the alternative (second method).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chain"
	"repro/internal/paging"
)

// Costs holds the unit costs of the two signalling operations.
type Costs struct {
	// Update is U, the cost of one location-update transaction.
	Update float64
	// Poll is V, the cost of polling a single cell.
	Poll float64
}

// Validate reports whether the costs are usable.
func (c Costs) Validate() error {
	if math.IsNaN(c.Update) || c.Update < 0 {
		return fmt.Errorf("core: update cost U=%v invalid", c.Update)
	}
	if math.IsNaN(c.Poll) || c.Poll < 0 {
		return fmt.Errorf("core: poll cost V=%v invalid", c.Poll)
	}
	return nil
}

// Config describes one terminal's location-management problem.
type Config struct {
	// Model selects the mobility model (1-D, 2-D exact, or 2-D approximate).
	Model chain.Model
	// Params holds the per-slot movement and call-arrival probabilities.
	Params chain.Params
	// Costs holds the unit costs U and V.
	Costs Costs
	// MaxDelay is m, the maximum paging delay in polling cycles;
	// paging.Unbounded (0) means unconstrained.
	MaxDelay int
	// Scheme partitions the residing area; nil means the paper's SDF.
	Scheme paging.Scheme
	// LegacyZeroRate reproduces the paper's closed-form-based numerics,
	// which computed the update cost at d = 0 with the interior transition
	// rate (q/2 in 1-D, q/3 in the approximate 2-D model) instead of
	// eq. (3)/(43)'s a_{0,1} = q. The published Table 1 and the d′/C′_T
	// columns of Table 2 require this flag (see DESIGN.md §4); leave it
	// false for the faithful equation-(3) behaviour. It affects d = 0 only.
	LegacyZeroRate bool
}

// scheme returns the configured partitioner, defaulting to SDF.
func (c Config) scheme() paging.Scheme {
	if c.Scheme == nil {
		return paging.SDF{}
	}
	return c.Scheme
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("core: negative max delay %d", c.MaxDelay)
	}
	return nil
}

// Breakdown is the evaluated cost of one (threshold, delay) operating point.
type Breakdown struct {
	// Threshold is the update threshold distance d.
	Threshold int
	// Update is Cu(d), the per-slot location-update cost.
	Update float64
	// Paging is Cv(d,m), the per-slot terminal-paging cost.
	Paging float64
	// Total is C_T(d,m) = Cu + Cv.
	Total float64
	// ExpectedDelay is the mean number of polling cycles per call,
	// Σ_j π_j·j (not a paper metric; derived from the same distribution).
	ExpectedDelay float64
	// MaxCycles is the number of subareas ℓ, the worst-case paging delay.
	MaxCycles int
}

// updateProb returns the per-slot location-update probability
// p_{d,d}·a_{d,d+1}, honouring the legacy d = 0 rate when configured.
func (c Config) updateProb(pi []float64, d int) float64 {
	if c.LegacyZeroRate && d == 0 {
		return pi[0] * c.Model.Up(c.Params, 1)
	}
	return chain.UpdateProb(c.Model, c.Params, pi)
}

// Evaluate computes the cost breakdown at threshold d using the exact
// stationary distribution for the configured model.
func (c Config) Evaluate(d int) (Breakdown, error) {
	if err := c.Validate(); err != nil {
		return Breakdown{}, err
	}
	pi, err := chain.Stationary(c.Model, c.Params, d)
	if err != nil {
		return Breakdown{}, err
	}
	return c.evaluateWith(pi, d), nil
}

// evaluateWith computes the breakdown from an externally supplied
// stationary distribution (used by the near-optimal pipeline, which scans
// with approximate probabilities but reports exact costs).
func (c Config) evaluateWith(pi []float64, d int) Breakdown {
	rings := c.Model.Grid().RingSizes(d)
	part := c.scheme().Partition(rings, pi, c.MaxDelay)
	cu := c.updateProb(pi, d) * c.Costs.Update
	cv := c.Params.C * c.Costs.Poll * part.ExpectedCells(pi)
	return Breakdown{
		Threshold:     d,
		Update:        cu,
		Paging:        cv,
		Total:         float64(cu) + float64(cv), // unfused on every architecture (DESIGN §11)
		ExpectedDelay: part.ExpectedDelay(pi),
		MaxCycles:     len(part),
	}
}

// Result is the outcome of a threshold optimization.
type Result struct {
	// Best is the cost breakdown at the optimal threshold d*.
	Best Breakdown
	// Curve holds C_T(d,m) for every scanned d (Curve[d] is threshold d);
	// nil for optimizers that do not scan exhaustively.
	Curve []float64
	// Evaluations counts cost-function evaluations performed.
	Evaluations int
}

// DefaultMaxThreshold bounds the exhaustive scan. The paper observes that
// "for typical call arrival and mobility values, the optimal distance
// rarely exceeds 50"; 200 leaves a wide margin.
const DefaultMaxThreshold = 200

// Scan finds the optimal threshold by evaluating every d in 0..maxD
// (Section 6, first method: D+1 iterations, immune to the local minima of
// the SDF cost curve). maxD ≤ 0 selects DefaultMaxThreshold.
func Scan(cfg Config, maxD int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if maxD <= 0 {
		maxD = DefaultMaxThreshold
	}
	res := Result{Curve: make([]float64, maxD+1)}
	best := Breakdown{Total: math.Inf(1)}
	for d := 0; d <= maxD; d++ {
		b, err := cfg.Evaluate(d)
		if err != nil {
			return Result{}, err
		}
		res.Curve[d] = b.Total
		res.Evaluations++
		if b.Total < best.Total {
			best = b
		}
	}
	res.Best = best
	return res, nil
}

// NearOptimal implements the paper's low-computation pipeline for the 2-D
// model (Sections 4.2 and 7): scan using the approximate closed-form
// stationary probabilities to choose d′ and report the exact cost C′_T of
// operating at d′. With correct set, the paper's Section 7 modification is
// applied: a selected d′ = 0 is replaced by 1 when the exact C_T(1) beats
// the exact C_T(0) (the worst cases of the uncorrected pipeline double the
// cost exactly there). The published Table 2 d′/C′_T columns are
// uncorrected, so the reproduction harness passes correct = false.
//
// The returned Curve holds the approximate-cost curve that drove the
// selection. For the 1-D model the closed form is exact, so NearOptimal
// differs from Scan only through Config.LegacyZeroRate.
func NearOptimal(cfg Config, maxD int, correct bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if maxD <= 0 {
		maxD = DefaultMaxThreshold
	}
	approxModel := cfg.Model
	exactModel := cfg.Model
	if cfg.Model == chain.TwoDimExact || cfg.Model == chain.TwoDimApprox {
		approxModel = chain.TwoDimApprox
		exactModel = chain.TwoDimExact
	}
	approxCfg := cfg
	approxCfg.Model = approxModel
	res := Result{Curve: make([]float64, maxD+1)}
	bestD, bestCost := 0, math.Inf(1)
	for d := 0; d <= maxD; d++ {
		pi, err := chain.StationaryClosedForm(approxModel, cfg.Params, d)
		if err != nil {
			// Closed-form overflow at extreme parameters: fall back to the
			// stable solver for the same approximate model.
			pi, err = chain.Stationary(approxModel, cfg.Params, d)
			if err != nil {
				return Result{}, err
			}
		}
		total := approxCfg.evaluateWith(pi, d).Total
		res.Curve[d] = total
		res.Evaluations++
		if total < bestCost {
			bestD, bestCost = d, total
		}
	}
	exactCfg := cfg
	exactCfg.Model = exactModel
	exactCfg.LegacyZeroRate = false
	if correct && bestD == 0 {
		// Paper Section 7 correction: a near-optimal threshold of 0 can
		// double the cost when the true optimum is 1; compare the exact
		// costs at 0 and 1 and keep the cheaper.
		b0, err := exactCfg.Evaluate(0)
		if err != nil {
			return Result{}, err
		}
		b1, err := exactCfg.Evaluate(1)
		if err != nil {
			return Result{}, err
		}
		res.Evaluations += 2
		if b1.Total < b0.Total {
			bestD = 1
		}
	}
	best, err := exactCfg.Evaluate(bestD)
	if err != nil {
		return Result{}, err
	}
	res.Best = best
	return res, nil
}

// ErrNoImprovement is returned by optimizers that fail to find any finite
// cost (should not occur for valid configurations).
var ErrNoImprovement = errors.New("core: optimizer found no finite-cost threshold")
