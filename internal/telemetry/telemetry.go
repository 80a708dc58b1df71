// Package telemetry is the run-observability substrate of the simulation
// engine: periodic time-series snapshots of a run's cumulative signalling
// counters (Frame), fixed-bucket latency histograms with deterministic
// merge (Hist), and live per-shard progress counters safe to poll from
// another goroutine while a sharded run is in flight (Progress).
//
// Determinism contract: every aggregate a merged Frame exposes is either
// an exact integer sum (order-independent by construction) or a Welford
// accumulator folded over per-terminal states in global terminal-id order
// — the same reduction order sim.Metrics uses — so the merged snapshot
// series of a seeded run is bit-identical for every shard count,
// property-tested alongside the engine's metrics invariance.
package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Config switches the telemetry subsystem on for a run. The zero value
// records nothing beyond the final metrics.
type Config struct {
	// SnapshotEvery is the snapshot cadence in slots: every SnapshotEvery
	// completed slots each shard captures a ShardFrame, and one final
	// frame is always captured when the run drains. 0 disables snapshots.
	// Snapshots take no RNG draws and schedule no events, so they never
	// perturb the simulation. Each shard frame transiently holds a copy
	// of the shard's per-terminal accumulator states (needed for the
	// id-order fold), so the cadence should stay modest for very large
	// populations.
	SnapshotEvery int64
	// Progress, when non-nil, receives live per-shard progress updates
	// (current slot, terminal-slots of work completed, events processed)
	// over atomic counters; poll Progress.Snapshot from another goroutine
	// (e.g. an expvar handler) while the run is in flight. Update
	// granularity is engine-dependent: the reference engine publishes
	// after every slot, the columnar engine once per slot batch (the
	// telemetry cadence, or the whole run when SnapshotEvery is zero)
	// and additionally work/events after every finished cohort inside a
	// batch. The engines agree at every batch boundary, so polled values
	// are always a prefix of the same trajectory.
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

// Summary is a JSON-able view of a Welford accumulator: sample count,
// mean, standard deviation and exact extrema (all zero when N is 0).
type Summary struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize extracts a Summary from an accumulator.
func Summarize(a *stats.Accumulator) Summary {
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
	// Recovery the HLR desync→recovery latency (slots), both folded over
	// per-terminal accumulators in global id order.
	Delay    Summary `json:"delay"`
	Recovery Summary `json:"recovery"`
}

// ShardFrame is one shard's snapshot at a slot boundary: its share of the
// counters plus a copy of its per-terminal delay/recovery accumulator
// states, which MergeFrames re-folds in global id order. The per-terminal
// copies exist only until the merge; the merged Frame keeps summaries.
type ShardFrame struct {
	// Slot is the boundary (completed slots) this frame captures.
	Slot int64
	// First is the global id of the shard's first terminal; shard frames
	// are folded in ascending First order.
	First int
	// Counters carries only this shard's share; Events counts sub-slot
	// events only (the merge adds the slot sweeps back once).
	Counters
	// Delay and Recovery hold the shard's per-terminal accumulator states
	// in ascending global id order.
	Delay, Recovery []stats.Accumulator
}

// MergeFrames folds per-shard snapshot series into the global series.
// All shards of a run capture frames at the same slot boundaries, so the
// series must be equally long and aligned; anything else is an engine bug
// and panics. Counters merge by exact integer sums, costs are recomputed
// from the merged counters, and the delay/recovery summaries are folded
// over the per-terminal accumulators in global id order — making the
// result independent of how the population was sharded.
func MergeFrames(shards [][]ShardFrame, terminals int, updateCost, pollCost float64) []Frame {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return nil
	}
	frames := len(shards[0])
	ordered := make([][]ShardFrame, len(shards))
	copy(ordered, shards)
	for _, s := range ordered {
		if len(s) != frames {
			panic(fmt.Sprintf("telemetry: shard captured %d frames, want %d", len(s), frames))
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i][0].First < ordered[j][0].First })

	out := make([]Frame, frames)
	for k := range out {
		f := Frame{Slot: ordered[0][k].Slot}
		var delay, recovery stats.Accumulator
		for _, s := range ordered {
			sf := s[k]
			if sf.Slot != f.Slot {
				panic(fmt.Sprintf("telemetry: misaligned shard frames: slot %d vs %d", sf.Slot, f.Slot))
			}
			f.Counters.add(sf.Counters)
			for i := range sf.Delay {
				delay.Merge(&sf.Delay[i])
			}
			for i := range sf.Recovery {
				recovery.Merge(&sf.Recovery[i])
			}
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
