package sim

import (
	"math"
	"testing"

	"repro/internal/chain"
	"repro/internal/paging"
)

func TestRunUnboundedDelay(t *testing.T) {
	// Unbounded delay: the partition is per-ring, so a call for a
	// terminal at ring i takes i+1 cycles; all within one slot.
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, paging.Unbounded, 5)
	want, err := cfg.Core.Evaluate(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.NotFound != 0 {
		t.Fatalf("%d paging failures", got.NotFound)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("simulated %v vs analytical %v", got.TotalCost, want.Total)
	}
	if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.05 {
		t.Errorf("delay %v vs %v", got.Delay.Mean(), want.ExpectedDelay)
	}
}

func TestRunWithOptimalDPScheme(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 3, 4)
	cfg.Core.Scheme = paging.OptimalDP{}
	want, err := cfg.Core.Evaluate(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.NotFound != 0 {
		t.Fatalf("%d paging failures", got.NotFound)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("DP scheme: simulated %v vs analytical %v", got.TotalCost, want.Total)
	}
	if got.Delay.Max() > 3 {
		t.Errorf("DP scheme: worst delay %v exceeds the bound", got.Delay.Max())
	}
}

func TestRunMaxThresholdAtSlotCapacityBoundary(t *testing.T) {
	// The largest MaxThreshold that still fits all polling ticks inside a
	// slot — nominal plan plus the (default) recovery paging rounds —
	// must be accepted; one above must not.
	ok := baseConfig(chain.OneDim, 0.1, 0.05, 0, 1)
	ok.MaxThreshold = SlotTicks/2 - 3 - DefaultPageRetries
	if _, err := Run(ok, 1000); err != nil {
		t.Errorf("boundary MaxThreshold rejected: %v", err)
	}
	bad := ok
	bad.MaxThreshold = SlotTicks/2 - 2 - DefaultPageRetries
	if _, err := Run(bad, 1000); err == nil {
		t.Error("over-capacity MaxThreshold accepted")
	}
}

func TestThresholdSlotsAccounting(t *testing.T) {
	cfg := baseConfig(chain.OneDim, 0.1, 0.05, 1, 2)
	cfg.Terminals = 3
	const slots = 10_000
	m, err := Run(cfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range m.ThresholdSlots {
		total += n
	}
	if total != slots*3 {
		t.Errorf("threshold histogram sums to %d, want %d", total, slots*3)
	}
}

func TestPerTerminalAccountingSumsToGlobal(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 3)
	cfg.Terminals = 6
	m, err := Run(cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerTerminal) != 6 {
		t.Fatalf("%d terminal records", len(m.PerTerminal))
	}
	var up, calls, cells int64
	var cost float64
	for _, ts := range m.PerTerminal {
		up += ts.Updates
		calls += ts.Calls
		cells += ts.PolledCells
		cost += ts.TotalCost
		if ts.FinalThreshold != 3 {
			t.Errorf("final threshold %d", ts.FinalThreshold)
		}
	}
	if up != m.Updates || calls != m.Calls || cells != m.PolledCells {
		t.Errorf("per-terminal sums (%d,%d,%d) vs global (%d,%d,%d)",
			up, calls, cells, m.Updates, m.Calls, m.PolledCells)
	}
	// Mean per-terminal cost equals the global per-terminal average.
	if diff := math.Abs(cost/6 - m.TotalCost); diff > 1e-12 {
		t.Errorf("per-terminal mean cost %v vs global %v", cost/6, m.TotalCost)
	}
}

func TestDynamicReoptimizationSendsUpdates(t *testing.T) {
	// When the network default is far from a terminal's optimum, dynamic
	// re-optimization must fire at least one threshold change, visible as
	// a second threshold in the histogram.
	cfg := baseConfig(chain.TwoDimExact, 0.3, 0.002, 2, 0)
	cfg.Dynamic = true
	cfg.ReoptimizeEvery = 500
	cfg.EWMAAlpha = 0.02
	m, err := Run(cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ThresholdSlots) < 2 {
		t.Errorf("dynamic run never changed threshold: %v", m.ThresholdSlots)
	}
	if m.NotFound != 0 {
		t.Errorf("%d paging failures across threshold changes", m.NotFound)
	}
}
