package baseline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
)

func cfg(kind grid.Kind, scheme Scheme, param int) Config {
	return Config{
		Kind:   kind,
		Params: chain.Params{Q: 0.05, C: 0.01},
		Costs:  core.Costs{Update: 100, Poll: 10},
		Scheme: scheme,
		Param:  param,
	}
}

func TestDistanceBasedMatchesAnalysis(t *testing.T) {
	// The distance-based baseline with a delay bound IS the paper's
	// mechanism; its simulated cost must match core's analytical C_T.
	for _, tc := range []struct {
		kind  grid.Kind
		model chain.Model
		d, m  int
	}{
		{grid.OneDim, chain.OneDim, 3, 2},
		{grid.TwoDimHex, chain.TwoDimExact, 3, 0},
	} {
		c := cfg(tc.kind, DistanceBased, tc.d)
		c.MaxDelay = tc.m
		r, err := Simulate(c, 3_000_000, 5)
		if err != nil {
			t.Fatal(err)
		}
		ana := core.Config{
			Model:    tc.model,
			Params:   c.Params,
			Costs:    c.Costs,
			MaxDelay: tc.m,
		}
		want, err := ana.Evaluate(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(r.TotalCost-want.Total) / want.Total; rel > 0.03 {
			t.Errorf("%v d=%d: simulated %v vs analytical %v", tc.kind, tc.d, r.TotalCost, want.Total)
		}
	}
}

func TestLASchemeBasics(t *testing.T) {
	// Single-cell LAs (size 1 / radius 0): every move crosses an LA
	// boundary, so the update rate is q and each call polls one cell.
	for _, tc := range []struct {
		kind  grid.Kind
		param int
		cells int
	}{
		{grid.OneDim, 1, 1},
		{grid.TwoDimHex, 0, 1},
	} {
		r, err := Simulate(cfg(tc.kind, LA, tc.param), 500_000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rate := float64(r.Updates) / float64(r.Slots); math.Abs(rate-0.05) > 0.005 {
			t.Errorf("%v: update rate %v, want ≈ q", tc.kind, rate)
		}
		if r.Calls > 0 {
			if per := float64(r.PolledCells) / float64(r.Calls); per != float64(tc.cells) {
				t.Errorf("%v: %v cells per call", tc.kind, per)
			}
		}
		if r.Delay.Mean() != 1 {
			t.Errorf("%v: LA paging delay %v, want 1", tc.kind, r.Delay.Mean())
		}
	}
}

func TestLALargerAreasFewerUpdates(t *testing.T) {
	small, err := Simulate(cfg(grid.TwoDimHex, LA, 1), 500_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Simulate(cfg(grid.TwoDimHex, LA, 4), 500_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if large.Updates >= small.Updates {
		t.Errorf("updates: radius 4 %d vs radius 1 %d", large.Updates, small.Updates)
	}
	if large.PolledCells <= small.PolledCells {
		t.Errorf("polled: radius 4 %d vs radius 1 %d", large.PolledCells, small.PolledCells)
	}
}

func TestTimeBasedUpdateRate(t *testing.T) {
	// The timer restarts on calls (a call re-centers the network's
	// knowledge), so cycles are renewals ending at the first call or at
	// the τ-th call-free slot: rate = (1−c)^τ / E[cycle], with
	// E[cycle] = (1 − (1−c)^τ)/c.
	const tau = 20
	const c = 0.01
	r, err := Simulate(cfg(grid.OneDim, TimeBased, tau), 500_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	noCall := math.Pow(1-c, tau)
	want := noCall / ((1 - noCall) / c)
	if rate := float64(r.Updates) / float64(r.Slots); math.Abs(rate-want) > 0.003 {
		t.Errorf("update rate %v, want ≈ %v", rate, want)
	}
}

func TestMovementBasedUpdateRate(t *testing.T) {
	// The move counter restarts on calls, so with event probability q+c
	// per slot and move fraction r = q/(q+c), an update ends a cycle with
	// probability r^M, cycles average ((1−r^M)/(1−r))/(q+c) slots:
	// rate = r^M·(q+c)·(1−r)/(1−r^M).
	const m = 5
	const q, c = 0.05, 0.01
	res, err := Simulate(cfg(grid.TwoDimHex, MovementBased, m), 1_000_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := q / (q + c)
	rm := math.Pow(r, m)
	want := rm * (q + c) * (1 - r) / (1 - rm)
	if rate := float64(res.Updates) / float64(res.Slots); math.Abs(rate-want) > 0.002 {
		t.Errorf("update rate %v, want ≈ %v", rate, want)
	}
}

func TestMovementBasedPagingBounded(t *testing.T) {
	// Between updates the terminal makes at most M−1 unreported moves plus
	// the one that just arrived, so the search radius never exceeds M.
	const m = 4
	c := cfg(grid.TwoDimHex, MovementBased, m)
	c.Params = chain.Params{Q: 0.5, C: 0.1}
	r, err := Simulate(c, 200_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Calls == 0 {
		t.Fatal("no calls")
	}
	maxCells := float64(grid.TwoDimHex.DiskSize(m))
	if per := float64(r.PolledCells) / float64(r.Calls); per > maxCells {
		t.Errorf("mean cells per call %v exceeds disk of radius M (%v)", per, maxCells)
	}
	if r.Delay.Mean() > float64(m+1) {
		t.Errorf("mean delay %v exceeds M+1", r.Delay.Mean())
	}
	// A call finds at most M−1 moves since the last contact, so the
	// per-ring search ends by ring M−1: no call ever needs more than M
	// cycles (a recovery round past the radius would).
	if r.Delay.Max() > float64(m) {
		t.Errorf("worst delay %v exceeds M", r.Delay.Max())
	}
}

func TestDistanceBeatsTimeAndMovementAtOptimum(t *testing.T) {
	// Bar-Noy et al.'s headline result: distance-based updating performs
	// best among the three triggers. Compare each scheme at its own
	// simulated-optimal parameter under identical workload.
	base := Config{
		Kind:   grid.TwoDimHex,
		Params: chain.Params{Q: 0.1, C: 0.01},
		Costs:  core.Costs{Update: 100, Poll: 10},
	}
	const slots = 400_000
	dist := base
	dist.Scheme = DistanceBased
	_, bestDist, err := OptimizeParam(dist, 0, 12, slots, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb := base
	tb.Scheme = TimeBased
	_, bestTime, err := OptimizeParam(tb, 1, 60, slots, 7)
	if err != nil {
		t.Fatal(err)
	}
	mb := base
	mb.Scheme = MovementBased
	_, bestMove, err := OptimizeParam(mb, 1, 12, slots, 7)
	if err != nil {
		t.Fatal(err)
	}
	if bestDist.TotalCost > bestTime.TotalCost*1.02 {
		t.Errorf("distance %v worse than time %v", bestDist.TotalCost, bestTime.TotalCost)
	}
	if bestDist.TotalCost > bestMove.TotalCost*1.02 {
		t.Errorf("distance %v worse than movement %v", bestDist.TotalCost, bestMove.TotalCost)
	}
}

func TestOptimizeParamFindsInteriorOptimum(t *testing.T) {
	c := cfg(grid.OneDim, DistanceBased, 0)
	c.MaxDelay = 1
	best, r, err := OptimizeParam(c, 0, 10, 300_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Analytical optimum for these parameters (Table 1, U=100, m=1) is 3.
	if best < 2 || best > 4 {
		t.Errorf("optimal d = %d (cost %v), want ≈ 3", best, r.TotalCost)
	}
}

func TestValidateAndErrors(t *testing.T) {
	bad := []Config{
		{Kind: grid.OneDim, Params: chain.Params{Q: 2}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: LA, Param: 1},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: -1, Poll: 1}, Scheme: LA, Param: 1},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: LA, Param: 0},
		{Kind: grid.TwoDimHex, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: LA, Param: -1},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: TimeBased, Param: 0},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: MovementBased, Param: 0},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: DistanceBased, Param: -1},
		{Kind: grid.OneDim, Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: Scheme(99), Param: 1},
		{Kind: grid.Kind(7), Params: chain.Params{Q: 0.1}, Costs: core.Costs{Update: 1, Poll: 1}, Scheme: TimeBased, Param: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := cfg(grid.OneDim, LA, 3)
	if _, err := Simulate(good, 0, 1); err == nil {
		t.Error("zero slots accepted")
	}
	if _, _, err := OptimizeParam(good, 5, 4, 100, 1); err == nil {
		t.Error("empty range accepted")
	}
	// Past the simulator's polling budget the error names the baseline
	// parameter and its ceiling, not sim's MaxThreshold.
	if _, err := Simulate(cfg(grid.OneDim, TimeBased, maxSimParam), 1000, 1); err != nil {
		t.Errorf("ceiling τ=%d rejected: %v", maxSimParam, err)
	}
	_, err := Simulate(cfg(grid.OneDim, TimeBased, 5000), 1000, 1)
	if err == nil || !strings.Contains(err.Error(), "time-based parameter 5000 exceeds 1013") {
		t.Errorf("τ=5000: got error %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		LA:            "location-area",
		TimeBased:     "time-based",
		MovementBased: "movement-based",
		DistanceBased: "distance-based",
		Scheme(42):    "Scheme(42)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
