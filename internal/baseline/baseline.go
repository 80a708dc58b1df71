// Package baseline implements the location-management schemes the paper
// compares against, so the cost of the paper's mechanism can be put in
// context on identical workloads:
//
//   - LA: the static location-area scheme of Xie, Tabbane & Goodman [8] —
//     the coverage area is statically partitioned into equal location
//     areas, a terminal updates whenever it enters a new LA, and the
//     network pages the terminal's whole LA in a single polling cycle.
//   - TimeBased: Bar-Noy, Kessler & Sidi [3] — the terminal updates every
//     τ slots regardless of movement; paging searches rings outward from
//     the last report.
//   - MovementBased: [3] — the terminal updates after M movements since
//     its last report; paging searches rings outward.
//   - DistanceBased: Madhow, Honig & Steiglitz [6] and this paper — the
//     terminal updates beyond threshold distance d (the unconstrained-
//     delay variant is [6]; with a delay bound it is the paper's scheme,
//     available analytically in package core).
//
// All schemes are evaluated by Monte-Carlo simulation on the real cell
// grids under the same random-walk/call workload, reporting per-slot
// average costs in the paper's U/V units. The time-, movement- and
// distance-based schemes run on the network simulator (package sim) with
// its matching update scheme and Param as the paging radius. LA keeps the
// one bespoke loop: its paging area is a fixed tile of the static
// partition, not a disk around the last report, so sim's HLR record of a
// center cell plus a radius cannot express it.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/stats"
)

// Scheme identifies a location-management discipline.
type Scheme int

const (
	// LA is the static location-area scheme [8]. Param is the LA size:
	// segment length in 1-D, hexagonal cluster radius in 2-D.
	LA Scheme = iota
	// TimeBased updates every Param slots [3].
	TimeBased
	// MovementBased updates after Param movements [3].
	MovementBased
	// DistanceBased updates beyond distance Param ([6]; this paper).
	DistanceBased
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case LA:
		return "location-area"
	case TimeBased:
		return "time-based"
	case MovementBased:
		return "movement-based"
	case DistanceBased:
		return "distance-based"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config describes one baseline evaluation.
type Config struct {
	// Kind selects the grid (1-D line or 2-D hex).
	Kind grid.Kind
	// Params is the random-walk workload.
	Params chain.Params
	// Costs are the paper's U and V units.
	Costs core.Costs
	// Scheme is the discipline under test.
	Scheme Scheme
	// Param is the scheme parameter: LA size/radius, τ slots, M moves, or
	// threshold distance d. For LA in 1-D it must be ≥ 1; elsewhere ≥ 0
	// with scheme-specific meaning. Simulate pages the time-, movement-
	// and distance-based schemes within radius Param inside one slot, so
	// it rejects Param above 1013 for them.
	Param int
	// MaxDelay bounds paging for DistanceBased (0 = unbounded, matching
	// [6]); other schemes have fixed paging disciplines: LA pages in one
	// cycle, time- and movement-based page per ring.
	MaxDelay int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.Kind != grid.OneDim && c.Kind != grid.TwoDimHex {
		return fmt.Errorf("baseline: unknown grid kind %v", c.Kind)
	}
	switch c.Scheme {
	case LA:
		if c.Kind == grid.OneDim && c.Param < 1 {
			return fmt.Errorf("baseline: 1-D LA size %d < 1", c.Param)
		}
		if c.Param < 0 {
			return fmt.Errorf("baseline: negative LA radius %d", c.Param)
		}
	case TimeBased:
		if c.Param < 1 {
			return fmt.Errorf("baseline: time-based period %d < 1", c.Param)
		}
	case MovementBased:
		if c.Param < 1 {
			return fmt.Errorf("baseline: movement threshold %d < 1", c.Param)
		}
	case DistanceBased:
		if c.Param < 0 {
			return fmt.Errorf("baseline: negative distance threshold %d", c.Param)
		}
	default:
		return fmt.Errorf("baseline: unknown scheme %d", int(c.Scheme))
	}
	return nil
}

// Result reports a simulation run.
type Result struct {
	Slots                             int64
	Updates, Calls, PolledCells       int64
	UpdateCost, PagingCost, TotalCost float64
	// Delay is the paging delay per call in polling cycles (always 1 for
	// the LA scheme).
	Delay stats.Moments
}

// Simulate runs the configured scheme for the given number of slots.
func Simulate(cfg Config, slots int64, seed uint64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if slots <= 0 {
		return Result{}, errors.New("baseline: slots must be positive")
	}
	if cfg.Scheme == LA {
		return simulateLA(cfg, slots, seed), nil
	}
	return simulateOnSim(cfg, slots, seed)
}

// OptimizeParam scans the scheme parameter over lo..hi and returns the
// value minimizing the simulated per-slot total cost. Each candidate is
// simulated for the same number of slots with the same seed, so the scan is
// a fair common-random-numbers comparison.
func OptimizeParam(cfg Config, lo, hi int, slots int64, seed uint64) (int, Result, error) {
	if lo > hi {
		return 0, Result{}, fmt.Errorf("baseline: empty parameter range [%d,%d]", lo, hi)
	}
	bestParam := lo
	best := Result{TotalCost: math.Inf(1)}
	for p := lo; p <= hi; p++ {
		c := cfg
		c.Param = p
		r, err := Simulate(c, slots, seed)
		if err != nil {
			return 0, Result{}, err
		}
		if r.TotalCost < best.TotalCost {
			bestParam, best = p, r
		}
	}
	return bestParam, best, nil
}
