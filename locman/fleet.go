package locman

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/stats"
)

// fleetSeedSalt decorrelates the fleet's parameter-jitter streams from
// the simulation's per-terminal event streams: terminal i's jittered
// parameters come from stats.SubStream(Seed^fleetSeedSalt, i), while its
// movement/call draws come from stats.SubStream(Seed, i). The constant is
// the 64-bit golden-ratio increment, the same family of salts SplitMix64
// itself uses.
const fleetSeedSalt = 0x9E3779B97F4A7C15

// FleetGroup describes one behavioural class of terminals: base per-slot
// movement and call probabilities plus optional relative jitter that
// individualizes each member around the base.
type FleetGroup struct {
	// MoveProb and CallProb are the group's base q and c.
	MoveProb float64 `json:"move_prob"`
	CallProb float64 `json:"call_prob"`
	// QJitter and CJitter spread each member's parameters uniformly over
	// [base·(1−j), base·(1+j)], drawn from the terminal's own parameter
	// SubStream so the value depends only on (Seed, terminal id) — never
	// on the shard partition or population ordering. Both must lie in
	// [0, 1]; zero means every member uses the base exactly.
	QJitter float64 `json:"q_jitter,omitempty"`
	CJitter float64 `json:"c_jitter,omitempty"`
}

// Fleet declares a heterogeneous terminal population: terminal i belongs
// to Groups[i mod len(Groups)], so the classes interleave evenly at any
// population size. A Fleet is pure data: it is the "fleet" section of a
// job Spec (the JSON tags are that wire format), it travels to cluster
// workers, it is validated up front, and it is the substrate the
// scenario registry's mixed populations build on.
type Fleet struct {
	Groups []FleetGroup `json:"groups"`
}

// Validate rejects fleets whose parameters could leave [0, 1] or exceed
// q + c ≤ 1 at any jitter extreme, naming the offending group. Validity
// at both extremes implies validity everywhere in between, so a fleet
// that passes can never produce an invalid terminal.
func (f *Fleet) Validate() error {
	if f == nil || len(f.Groups) == 0 {
		return errors.New("locman: fleet has no groups")
	}
	for gi, g := range f.Groups {
		if !(g.QJitter >= 0 && g.QJitter <= 1) {
			return fmt.Errorf("locman: fleet group %d: move-probability jitter %v outside [0, 1]", gi, g.QJitter)
		}
		if !(g.CJitter >= 0 && g.CJitter <= 1) {
			return fmt.Errorf("locman: fleet group %d: call-probability jitter %v outside [0, 1]", gi, g.CJitter)
		}
		for _, p := range []chain.Params{
			{Q: g.MoveProb * (1 - g.QJitter), C: g.CallProb * (1 - g.CJitter)},
			{Q: g.MoveProb * (1 + g.QJitter), C: g.CallProb * (1 + g.CJitter)},
		} {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("locman: fleet group %d: %w", gi, err)
			}
		}
	}
	return nil
}

// perTerminal compiles the fleet into the sim.Config.PerTerminal hook
// the simulator consumes. Groups without jitter take no draws at all, so
// a jitter-free fleet reproduces its base parameters exactly (HeteroFleet
// relies on this to match the historical -hetero closure bit for bit).
// Each product sits in an explicit float64 conversion, so no machine may
// fuse it into a multiply-add (DESIGN §11) and a jittered terminal draws
// the same parameters on every architecture. That includes r.Float64's
// own scaling product, which is inlined here.
func (f *Fleet) perTerminal(seed uint64) func(i int) chain.Params {
	groups := append([]FleetGroup(nil), f.Groups...)
	return func(i int) chain.Params {
		g := groups[i%len(groups)]
		p := chain.Params{Q: g.MoveProb, C: g.CallProb}
		if g.QJitter != 0 || g.CJitter != 0 {
			var r stats.RNG
			r.SeedSubStream(seed^fleetSeedSalt, uint64(i))
			p.Q *= 1 + float64(g.QJitter*(float64(2*float64(r.Float64()))-1))
			p.C *= 1 + float64(g.CJitter*(float64(2*float64(r.Float64()))-1))
		}
		return p
	}
}

// HeteroFleet is the pcnsim -hetero population as a declarative fleet:
// eleven groups whose movement probabilities ramp from 0.5x to 1.5x of
// the base, all sharing the base call probability. Terminal i mod 11
// picks the group, reproducing the historical hardcoded closure
// bit-identically — the CLI, the jobs Spec and the scenario registry all
// express -hetero through this one constructor, which closes the
// CLI↔service parity hole.
func HeteroFleet(moveProb, callProb float64) *Fleet {
	groups := make([]FleetGroup, 11)
	for g := range groups {
		f := 0.5 + float64(g)/10.0 // 0.5x .. 1.5x
		groups[g] = FleetGroup{MoveProb: moveProb * f, CallProb: callProb}
	}
	return &Fleet{Groups: groups}
}
