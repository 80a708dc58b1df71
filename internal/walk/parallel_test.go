package walk

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/sim"
)

// runParallel walks terminals independent terminals, each for slots
// slots, split over the given number of shards.
func runParallel(c core.Config, d int, slots int64, seed uint64, terminals, shards int) (*sim.Metrics, error) {
	return sim.RunSharded(sim.Config{Core: c, Terminals: terminals, Threshold: d, Seed: seed}, slots, shards)
}

func TestRunParallelMatchesAnalysis(t *testing.T) {
	c := cfg(chain.TwoDimExact, 0.05, 0.01, 100, 10, 2)
	const d = 3
	want, err := c.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runParallel(c, d, 1_000_000, 9, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots != 1_000_000 || got.Terminals != 4 {
		t.Fatalf("slots = %d, terminals = %d", got.Slots, got.Terminals)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.02 {
		t.Errorf("parallel cost %v vs analytical %v", got.TotalCost, want.Total)
	}
	if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.03 {
		t.Errorf("delay %v vs %v", got.Delay.Mean(), want.ExpectedDelay)
	}
	var sum int64
	for _, n := range got.DelayHist.Counts {
		sum += n
	}
	if sum+got.DelayHist.Overflow != got.Delay.N() || got.Delay.N() != got.Calls {
		t.Errorf("delay histogram holds %d+%d of %d samples for %d calls",
			sum, got.DelayHist.Overflow, got.Delay.N(), got.Calls)
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	c := cfg(chain.OneDim, 0.1, 0.02, 10, 1, 1)
	a, err := runParallel(c, 2, 70_000, 5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runParallel(c, 2, 70_000, 5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates != b.Updates || a.PolledCells != b.PolledCells || a.Calls != b.Calls {
		t.Error("same (seed, shards) diverged")
	}
}

func TestRunParallelUnevenSplit(t *testing.T) {
	// terminals not divisible by shards: the remainder must not be lost.
	c := cfg(chain.OneDim, 0.1, 0.02, 10, 1, 1)
	got, err := runParallel(c, 2, 25_000, 5, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Terminals != 7 || len(got.PerTerminal) != 7 {
		t.Fatalf("terminals = %d, per-terminal records = %d", got.Terminals, len(got.PerTerminal))
	}
	var calls int64
	for i, ts := range got.PerTerminal {
		if ts.ID != i || ts.Calls == 0 {
			t.Errorf("record %d: id %d, %d calls", i, ts.ID, ts.Calls)
		}
		calls += ts.Calls
	}
	if calls != got.Calls {
		t.Errorf("per-terminal calls sum to %d, total %d", calls, got.Calls)
	}
}

func TestRunParallelErrors(t *testing.T) {
	c := cfg(chain.OneDim, 0.1, 0.02, 10, 1, 1)
	if _, err := runParallel(c, 2, 1000, 1, 2, -1); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := runParallel(c, 2, 0, 1, 8, 2); err == nil {
		t.Error("zero slots accepted")
	}
	bad := cfg(chain.OneDim, 2, 0, 1, 1, 1)
	if _, err := runParallel(bad, 2, 1000, 1, 2, 2); err == nil {
		t.Error("invalid config accepted")
	}
}
