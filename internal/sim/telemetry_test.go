package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/telemetry"
)

// telemetryConfig is a faulty, snapshot-enabled configuration that
// exercises every counter a frame carries.
func telemetryConfig() Config {
	cfg := faultyConfig()
	cfg.Telemetry.SnapshotEvery = 500
	return cfg
}

// TestSnapshotSeriesContents checks the shape and semantics of the
// snapshot series: boundaries at every cadence multiple plus the final
// slot, cumulative counters monotone non-decreasing, and the final frame
// agreeing exactly with the final Metrics.
func TestSnapshotSeriesContents(t *testing.T) {
	cfg := telemetryConfig()
	const slots = 4_000
	m, err := RunSharded(cfg, slots, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Snapshots) != slots/500 {
		t.Fatalf("%d frames, want %d", len(m.Snapshots), slots/500)
	}
	prev := telemetry.Frame{}
	for i, f := range m.Snapshots {
		if want := int64(i+1) * 500; f.Slot != want {
			t.Errorf("frame %d at slot %d, want %d", i, f.Slot, want)
		}
		if f.Updates < prev.Updates || f.Calls < prev.Calls || f.PolledCells < prev.PolledCells ||
			f.Events < prev.Events || f.Delay.N < prev.Delay.N || f.Recovery.N < prev.Recovery.N {
			t.Errorf("frame %d counters regressed: %+v after %+v", i, f, prev)
		}
		if f.TotalCost != f.UpdateCost+f.PagingCost {
			t.Errorf("frame %d cost identity broken: %+v", i, f)
		}
		prev = f
	}

	// The final frame is the final state, bit for bit.
	last := m.Snapshots[len(m.Snapshots)-1]
	if last.Slot != slots || last.Updates != m.Updates || last.Calls != m.Calls ||
		last.PolledCells != m.PolledCells || last.Events != m.Events ||
		last.LostUpdates != m.LostUpdates || last.DroppedCalls != m.DroppedCalls ||
		last.Retransmissions != m.Retransmissions || last.RePolls != m.RePolls {
		t.Errorf("final frame %+v does not match metrics", last)
	}
	if math.Float64bits(last.TotalCost) != math.Float64bits(m.TotalCost) ||
		math.Float64bits(last.UpdateCost) != math.Float64bits(m.UpdateCost) {
		t.Errorf("final frame costs (%v, %v) != metrics (%v, %v)",
			last.UpdateCost, last.TotalCost, m.UpdateCost, m.TotalCost)
	}
	if want := telemetry.Summarize(&m.Delay); last.Delay != want {
		t.Errorf("final delay summary %+v, want %+v", last.Delay, want)
	}
	if want := telemetry.Summarize(&m.Recovery); last.Recovery != want {
		t.Errorf("final recovery summary %+v, want %+v", last.Recovery, want)
	}
}

// TestSnapshotSeriesShardInvariant is the tentpole acceptance property:
// the full snapshot series and both latency histograms are bit-identical
// for 1, 2 and N shards on the same seed, under a nonzero FaultPlan.
func TestSnapshotSeriesShardInvariant(t *testing.T) {
	cfg := telemetryConfig()
	const slots = 3_000
	want, err := RunSharded(cfg, slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Snapshots) == 0 || want.DelayHist.N == 0 || want.RecoveryHist.N == 0 {
		t.Fatalf("reference run captured no telemetry: %d frames, hists (%d, %d)",
			len(want.Snapshots), want.DelayHist.N, want.RecoveryHist.N)
	}
	for _, shards := range shardCounts() {
		got, err := RunSharded(cfg, slots, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(want.Snapshots, got.Snapshots) {
			t.Errorf("shards=%d: snapshot series diverged", shards)
		}
		if !reflect.DeepEqual(want.DelayHist, got.DelayHist) ||
			!reflect.DeepEqual(want.RecoveryHist, got.RecoveryHist) {
			t.Errorf("shards=%d: histograms diverged", shards)
		}
	}
}

// TestHistogramsAgreeWithAccumulators pins the histograms to the moments
// aggregates they sit alongside: same sample counts and extrema, ordered
// quantiles, and buckets that account for every sample.
func TestHistogramsAgreeWithAccumulators(t *testing.T) {
	cfg := telemetryConfig()
	m, err := Run(cfg, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string]struct {
		hist *telemetry.Hist
		n    int64
		max  float64
	}{
		"delay":    {m.DelayHist, m.Delay.N(), m.Delay.Max()},
		"recovery": {m.RecoveryHist, m.Recovery.N(), m.Recovery.Max()},
	} {
		h := pair.hist
		if h.N != pair.n {
			t.Errorf("%s: hist N %d != accumulator N %d", name, h.N, pair.n)
		}
		if h.Max != pair.max {
			t.Errorf("%s: hist max %v != accumulator max %v", name, h.Max, pair.max)
		}
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		if sum+h.Overflow != h.N {
			t.Errorf("%s: buckets %d + overflow %d != N %d", name, sum, h.Overflow, h.N)
		}
		p50, p95, p99 := h.P50(), h.P95(), h.P99()
		if p50 > p95 || p95 > p99 || p99 > h.Max {
			t.Errorf("%s: quantiles not ordered: %v %v %v max %v", name, p50, p95, p99, h.Max)
		}
	}
}

// TestTelemetryOffByDefault checks the zero config records no snapshot
// series (the histograms are always on) and that a negative cadence is
// rejected.
func TestTelemetryOffByDefault(t *testing.T) {
	cfg := baseConfig(chain.OneDim, 0.2, 0.05, 2, 2)
	cfg.Terminals = 3
	m, err := Run(cfg, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Snapshots) != 0 {
		t.Errorf("telemetry off captured %d frames", len(m.Snapshots))
	}
	if m.DelayHist == nil || m.DelayHist.N != m.Delay.N() {
		t.Errorf("delay histogram not populated: %+v", m.DelayHist)
	}
	cfg.Telemetry.SnapshotEvery = -1
	if _, err := Run(cfg, 1_000); err == nil {
		t.Error("negative snapshot cadence accepted")
	}
}

// TestSnapshotCadenceBeyondRun still captures the single final frame.
func TestSnapshotCadenceBeyondRun(t *testing.T) {
	cfg := baseConfig(chain.OneDim, 0.2, 0.05, 2, 2)
	cfg.Terminals = 3
	cfg.Telemetry.SnapshotEvery = 10_000
	m, err := RunSharded(cfg, 1_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Snapshots) != 1 || m.Snapshots[0].Slot != 1_000 {
		t.Fatalf("snapshots %+v, want exactly one final frame", m.Snapshots)
	}
}

// TestProgressTracksRun checks the live progress counters land on the
// final slot for every shard once the run drains.
func TestProgressTracksRun(t *testing.T) {
	cfg := baseConfig(chain.OneDim, 0.2, 0.05, 2, 2)
	cfg.Terminals = 8
	prog := &telemetry.Progress{}
	cfg.Telemetry.Progress = prog
	const slots = 1_000
	if _, err := RunSharded(cfg, slots, 4); err != nil {
		t.Fatal(err)
	}
	statuses := prog.Snapshot()
	if len(statuses) != 4 {
		t.Fatalf("%d shard statuses, want 4", len(statuses))
	}
	for _, s := range statuses {
		if s.Slot != slots {
			t.Errorf("shard %d finished at slot %d, want %d", s.Shard, s.Slot, slots)
		}
		if s.Events < slots {
			t.Errorf("shard %d processed %d events, want ≥ %d", s.Shard, s.Events, slots)
		}
	}
}
