// Package telemetry is the run-observability substrate of the simulation
// engine: periodic time-series snapshots of a run's cumulative signalling
// counters (Frame), fixed-bucket latency histograms with deterministic
// merge (Hist), and live per-shard progress counters safe to poll from
// another goroutine while a sharded run is in flight (Progress).
//
// Determinism contract: every aggregate a merged Frame exposes is an
// exact integer sum — the counters, and the delay/recovery samples held
// as stats.Moments (count, Σx, Σx², extrema) — so shard frames merge in
// any order and the merged snapshot series of a seeded run is
// bit-identical for every shard count, property-tested alongside the
// engine's metrics invariance.
package telemetry

import (
	"fmt"

	"repro/internal/stats"
)

// Config switches the telemetry subsystem on for a run. The zero value
// records nothing beyond the final metrics.
type Config struct {
	// SnapshotEvery is the snapshot cadence in slots: every SnapshotEvery
	// completed slots each shard captures a ShardFrame, and one final
	// frame is always captured when the run drains. 0 disables snapshots.
	// Snapshots take no RNG draws and schedule no events, so they never
	// perturb the simulation. A shard frame holds the shard's counters
	// and two fixed-size moment totals, so its size does not grow with
	// the population.
	SnapshotEvery int64
	// Progress, when non-nil, receives live per-shard progress updates
	// (current slot, terminal-slots of work completed, events processed)
	// over atomic counters; poll Progress.Snapshot from another goroutine
	// (e.g. an expvar handler) while the run is in flight. Update
	// granularity is engine-dependent: the reference engine publishes
	// after every slot, the columnar engine once per slot batch (cut by
	// checkpoints, the run end and every 256 telemetry intervals, never
	// by the cadence itself) and additionally work after every finished
	// cohort inside a batch. The engines agree at every batch boundary,
	// so polled values are always a prefix of the same trajectory.
	Progress *Progress
}

// Counters is the cumulative-counter section shared by snapshot frames:
// the signalling operations and fault/recovery activity observed since
// the start of the run.
type Counters struct {
	// Updates counts location-update transmission attempts (first sends
	// and retransmissions alike); LostUpdates the attempts dropped by the
	// injected uplink loss; Retransmissions the attempts triggered by ack
	// timeouts.
	Updates         int64 `json:"updates"`
	LostUpdates     int64 `json:"lost_updates"`
	Retransmissions int64 `json:"retransmissions"`
	// Calls, PolledCells, DroppedCalls and RePolls count the paging side:
	// incoming calls, per-cell polls broadcast, calls abandoned after the
	// retry budget, and recovery re-poll rounds.
	Calls        int64 `json:"calls"`
	PolledCells  int64 `json:"polled_cells"`
	DroppedCalls int64 `json:"dropped_calls"`
	RePolls      int64 `json:"re_polls"`
	// Events counts scheduler events dispatched (slot sweeps counted once
	// in a merged frame, matching the sim.Metrics convention).
	Events uint64 `json:"events"`
}

// add folds o's counters into c by plain summation.
func (c *Counters) add(o Counters) {
	c.Updates += o.Updates
	c.LostUpdates += o.LostUpdates
	c.Retransmissions += o.Retransmissions
	c.Calls += o.Calls
	c.PolledCells += o.PolledCells
	c.DroppedCalls += o.DroppedCalls
	c.RePolls += o.RePolls
	c.Events += o.Events
}

// Summary is a JSON-able view of a stats.Moments: sample count, mean,
// standard deviation and exact extrema (all zero when N is 0). Mean and
// StdDev are each the float64 nearest the exact value.
type Summary struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize extracts a Summary from exact moments.
func Summarize(a *stats.Moments) Summary {
	return Summary{N: a.N(), Mean: a.Mean(), StdDev: a.StdDev(), Min: a.Min(), Max: a.Max()}
}

// Frame is one merged snapshot of a run at a slot boundary: cumulative
// counters, the per-slot per-terminal cost averages up to that boundary,
// and summaries of the delay and recovery-latency accumulators.
type Frame struct {
	// Slot is the number of completed slots this frame covers. The final
	// frame of a run has Slot equal to the run length and additionally
	// reflects any events drained after the last slot (late
	// retransmission timers).
	Slot int64 `json:"slot"`
	Counters
	// UpdateCost, PagingCost and TotalCost are per-slot per-terminal
	// averages over the first Slot slots, in the paper's U/V units.
	UpdateCost float64 `json:"update_cost"`
	PagingCost float64 `json:"paging_cost"`
	TotalCost  float64 `json:"total_cost"`
	// Delay summarizes the per-call paging delay (polling cycles) and
	// Recovery the HLR desync→recovery latency (slots).
	Delay    Summary `json:"delay"`
	Recovery Summary `json:"recovery"`
}

// ShardFrame is one shard's snapshot at a slot boundary: its share of the
// counters and its delay/recovery moment totals. Every field is an
// integer total, so MergeFrames adds shard frames in any order.
type ShardFrame struct {
	// Slot is the boundary (completed slots) this frame captures.
	Slot int64
	// Counters carries only this shard's share; Events counts sub-slot
	// events only (the merge adds the slot sweeps back once).
	Counters
	// Delay and Recovery are the shard's delay (cycles) and recovery
	// (ticks) samples so far.
	Delay, Recovery stats.Moments
}

// MergeFrames folds per-shard snapshot series into the global series.
// All shards of a run capture frames at the same slot boundaries, so the
// series must be equally long and aligned; anything else is an engine bug
// and panics. Counters and moments merge by exact integer sums, and costs
// are recomputed from the merged counters — so the result is independent
// of how the population was sharded and of the shards' order.
func MergeFrames(shards [][]ShardFrame, terminals int, updateCost, pollCost float64) []Frame {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return nil
	}
	frames := len(shards[0])
	for _, s := range shards {
		if len(s) != frames {
			panic(fmt.Sprintf("telemetry: shard captured %d frames, want %d", len(s), frames))
		}
	}

	out := make([]Frame, frames)
	for k := range out {
		f := Frame{Slot: shards[0][k].Slot}
		var delay, recovery stats.Moments
		for _, s := range shards {
			sf := &s[k]
			if sf.Slot != f.Slot {
				panic(fmt.Sprintf("telemetry: misaligned shard frames: slot %d vs %d", sf.Slot, f.Slot))
			}
			f.Counters.add(sf.Counters)
			delay.Merge(&sf.Delay)
			recovery.Merge(&sf.Recovery)
		}
		// Shards report sub-slot events only; count the slot sweeps once.
		f.Events += uint64(f.Slot)
		denom := float64(f.Slot) * float64(terminals)
		f.UpdateCost = float64(f.Updates) * updateCost / denom
		f.PagingCost = float64(f.PolledCells) * pollCost / denom
		f.TotalCost = f.UpdateCost + f.PagingCost
		f.Delay = Summarize(&delay)
		f.Recovery = Summarize(&recovery)
		out[k] = f
	}
	return out
}
