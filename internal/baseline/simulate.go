package baseline

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
)

// maxSimParam is the largest Param the time-, movement- and distance-based
// schemes accept: the scheme parameter becomes sim's paging radius, and a
// per-ring search of that radius plus sim's default recovery rounds must
// fit in the polling ticks of one slot (sim rejects MaxThreshold ≥ 1014).
const maxSimParam = sim.SlotTicks/2 - 3 - sim.DefaultPageRetries

// simConfig maps a time-, movement- or distance-based configuration onto
// the network simulator, with Param as the paging radius. Timer and
// movement page one ring per cycle from the last contact; between
// contacts the terminal makes at most τ moves (timer) or fewer than M
// (movement), so the radius-Param disk always contains it and PerRing's
// cumulative polls are exactly the expanding-ring search of [3].
func simConfig(cfg Config) sim.Config {
	// Both 2-D chain models walk the same hexagonal plane.
	model := chain.TwoDimExact
	if cfg.Kind == grid.OneDim {
		model = chain.OneDim
	}
	sc := sim.Config{
		Core:      core.Config{Model: model, Params: cfg.Params, Costs: cfg.Costs},
		Threshold: cfg.Param,
		// No threshold is optimized here, so the cap only has to admit
		// Param (0 keeps sim's default).
		MaxThreshold: cfg.Param,
	}
	switch cfg.Scheme {
	case TimeBased:
		sc.Scheme = sim.TimerScheme{Every: int64(cfg.Param)}
		sc.Core.Scheme = paging.PerRing{}
	case MovementBased:
		sc.Scheme = sim.MovementScheme{Count: int64(cfg.Param)}
		sc.Core.Scheme = paging.PerRing{}
	case DistanceBased:
		sc.Core.MaxDelay = cfg.MaxDelay
	}
	return sc
}

// simulateOnSim runs a time-, movement- or distance-based configuration on
// a one-terminal network simulation.
func simulateOnSim(cfg Config, slots int64, seed uint64) (Result, error) {
	sc := simConfig(cfg)
	sc.Seed = seed
	m, err := sim.Run(sc, slots)
	if err != nil {
		if cfg.Param > maxSimParam {
			return Result{}, fmt.Errorf("baseline: %v parameter %d exceeds %d, the largest radius one simulated slot can page: %w",
				cfg.Scheme, cfg.Param, maxSimParam, err)
		}
		return Result{}, err
	}
	return Result{
		Slots:       m.Slots,
		Updates:     m.Updates,
		Calls:       m.Calls,
		PolledCells: m.PolledCells,
		UpdateCost:  m.UpdateCost,
		PagingCost:  m.PagingCost,
		TotalCost:   m.TotalCost,
		Delay:       m.Delay,
	}, nil
}

// simulateLA runs the static location-area scheme: a call blanket-polls
// the terminal's whole LA in one cycle, and crossing into another LA
// triggers an update. 1-D positions embed in hex axial coordinates as
// R = 0.
func simulateLA(cfg Config, slots int64, seed uint64) Result {
	la := func(h grid.Hex) grid.Hex { return grid.HexLACenter(h, cfg.Param) }
	cells := grid.TwoDimHex.DiskSize(cfg.Param)
	if cfg.Kind == grid.OneDim {
		la = func(h grid.Hex) grid.Hex {
			return grid.Hex{Q: int(grid.LineLAStart(grid.Line(h.Q), cfg.Param))}
		}
		cells = cfg.Param
	}
	moveProb := 0.0
	if cfg.Params.Q > 0 {
		moveProb = cfg.Params.Q / (1 - cfg.Params.C)
	}
	rng := stats.NewRNG(seed)
	res := Result{Slots: slots}
	pos := grid.Hex{}
	cur := la(pos)
	for t := int64(0); t < slots; t++ {
		if rng.Bernoulli(cfg.Params.C) {
			// The network learns the exact cell, but the scheme's state
			// (the current LA) is unchanged by construction.
			res.Calls++
			res.PolledCells += int64(cells)
			res.Delay.Add(1)
			continue
		}
		if rng.Bernoulli(moveProb) {
			if cfg.Kind == grid.OneDim {
				pos.Q += 2*rng.Intn(2) - 1
			} else {
				pos = pos.Neighbor(rng.Intn(6))
			}
			if a := la(pos); a != cur {
				cur = a
				res.Updates++
			}
		}
	}
	res.UpdateCost = float64(res.Updates) * cfg.Costs.Update / float64(slots)
	res.PagingCost = float64(res.PolledCells) * cfg.Costs.Poll / float64(slots)
	res.TotalCost = res.UpdateCost + res.PagingCost
	return res
}
