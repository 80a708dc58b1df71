package locman

import (
	"math"
	"strings"
	"testing"

	"repro/internal/chain"
)

// TestHeteroFleetMatchesClosure holds HeteroFleet to its contract: the
// hook the declarative fleet compiles to hands every terminal exactly
// the parameters of the historical pcnsim -hetero closure, so moving the
// CLI and the job Spec onto the fleet changed nothing. The report-level
// half is golden_1d-static-hetero.json, which this fleet reproduces.
func TestHeteroFleetMatchesClosure(t *testing.T) {
	const q, c = 0.1, 0.02
	per := HeteroFleet(q, c).perTerminal(13)
	for i := 0; i < 26; i++ { // not a multiple of 11, so the ramp wraps unevenly
		f := 0.5 + float64(i%11)/10.0 // the historical hardcoded ramp
		if got, want := per(i), (chain.Params{Q: q * f, C: c}); got != want {
			t.Errorf("terminal %d: HeteroFleet gives %+v, the closure gave %+v", i, got, want)
		}
	}
}

// TestFleetValidate pins fleet-level up-front validation: empty fleets,
// out-of-range jitter, and groups whose jitter extremes escape the
// parameter space are all rejected with errors naming the offender —
// before any simulation work starts.
func TestFleetValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fleet *Fleet
		err   string // "" means valid
	}{
		{"nil fleet", nil, "fleet has no groups"},
		{"no groups", &Fleet{}, "fleet has no groups"},
		{"plain valid", &Fleet{Groups: []FleetGroup{{MoveProb: 0.2, CallProb: 0.05}}}, ""},
		{"jittered valid", &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.2, CallProb: 0.05, QJitter: 1, CJitter: 0.5},
		}}, ""},
		{"negative q jitter", &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.2, CallProb: 0.05, QJitter: -0.1},
		}}, "group 0: move-probability jitter -0.1 outside [0, 1]"},
		{"oversized c jitter", &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.2, CallProb: 0.05},
			{MoveProb: 0.2, CallProb: 0.05, CJitter: 1.5},
		}}, "group 1: call-probability jitter 1.5 outside [0, 1]"},
		{"NaN jitter", &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.2, CallProb: 0.05, QJitter: math.NaN()},
		}}, "outside [0, 1]"},
		{"upper extreme escapes", &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.2, CallProb: 0.05},
			// 0.7·1.5 + 0.05 > 1 at the +50% extreme.
			{MoveProb: 0.7, CallProb: 0.05, QJitter: 0.5},
		}}, "group 1:"},
		{"negative base", &Fleet{Groups: []FleetGroup{
			{MoveProb: -0.1, CallProb: 0.05},
		}}, "group 0:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.fleet.Validate()
			if tc.err == "" {
				if err != nil {
					t.Fatalf("valid fleet rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want containing %q", err, tc.err)
			}
		})
	}
}

// TestFleetPerTerminalDeterminism checks the jitter contract: a
// member's parameters depend only on (seed, terminal id) — never on
// call order — jitter-free groups reproduce their base exactly, and
// every jittered draw stays inside [base·(1−j), base·(1+j)].
func TestFleetPerTerminalDeterminism(t *testing.T) {
	f := &Fleet{Groups: []FleetGroup{
		{MoveProb: 0.2, CallProb: 0.04, QJitter: 0.5, CJitter: 0.25},
		{MoveProb: 0.1, CallProb: 0.02}, // jitter-free
	}}
	a, b := f.perTerminal(42), f.perTerminal(42)
	other := f.perTerminal(43)
	var differs bool
	for i := 0; i < 64; i++ {
		p1 := a(i)
		q1, c1 := p1.Q, p1.C
		// Same seed: identical from an independent closure instance with
		// a different call history (b already served terminal 63−i).
		b(63 - i)
		if p2 := b(i); p1 != p2 {
			t.Fatalf("terminal %d: %+v vs %+v for the same seed", i, p1, p2)
		}
		g := f.Groups[i%2]
		if g.QJitter == 0 && g.CJitter == 0 {
			if q1 != g.MoveProb || c1 != g.CallProb {
				t.Fatalf("jitter-free terminal %d drew (%v, %v), want base (%v, %v)",
					i, q1, c1, g.MoveProb, g.CallProb)
			}
		} else {
			if q1 < g.MoveProb*(1-g.QJitter) || q1 > g.MoveProb*(1+g.QJitter) {
				t.Fatalf("terminal %d q %v outside jitter range", i, q1)
			}
			if c1 < g.CallProb*(1-g.CJitter) || c1 > g.CallProb*(1+g.CJitter) {
				t.Fatalf("terminal %d c %v outside jitter range", i, c1)
			}
			if other(i).Q == q1 {
				continue // rare but possible for one terminal; tracked below
			}
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical jittered parameters throughout")
	}
}

// TestFleetInvalidRejectedUpFront checks an invalid fleet fails the run
// before simulation starts, with the group-naming error — the
// fleet-level half of the heterogeneous validation fix.
func TestFleetInvalidRejectedUpFront(t *testing.T) {
	cfg := NetworkConfig{
		Config: Config{
			Model: TwoDimensional, MoveProb: 0.1, CallProb: 0.02,
			UpdateCost: 100, PollCost: 10, MaxDelay: 3,
		},
		Terminals: 4,
		Threshold: 2,
		Fleet:     &Fleet{Groups: []FleetGroup{{MoveProb: 0.8, CallProb: 0.4}}},
		Seed:      1,
	}
	_, err := SimulateNetworkSharded(cfg, 100, 1)
	if err == nil || !strings.Contains(err.Error(), "fleet group 0") {
		t.Fatalf("invalid fleet accepted or error unhelpful: %v", err)
	}
}
