package sim

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Metrics aggregates a run's measurements.
type Metrics struct {
	// Slots and Terminals echo the run shape.
	Slots     int64
	Terminals int
	// Updates, Calls and PolledCells count mechanism operations.
	Updates, Calls, PolledCells int64
	// UpdateBytes, PollBytes and ReplyBytes count signalling bytes on the
	// wire per message class.
	UpdateBytes, PollBytes, ReplyBytes int64
	// Delay is the per-call paging delay in polling cycles, held as
	// exact integer moments (so its value is independent of the shard
	// count, see RunSharded).
	Delay stats.Moments
	// UpdateCost, PagingCost and TotalCost are per-slot per-terminal
	// averages in the paper's U/V units, comparable to core.Breakdown.
	UpdateCost, PagingCost, TotalCost float64
	// NotFound counts paging failures outside the recovery machinery. The
	// fault subsystem converts every plan miss into recovery rounds and,
	// past the retry budget, DroppedCalls, so any nonzero value indicates
	// a mechanism bug. It is retained so regressions surface as a counter
	// rather than a panic.
	NotFound int64
	// LostUpdates counts update transmissions (including retransmissions)
	// dropped by the injected uplink loss (FaultPlan.UpdateLoss).
	LostUpdates int64
	// LostPolls counts paging polls that failed to reach the terminal's
	// cell (FaultPlan.PollLoss); LostReplies counts paging replies dropped
	// on the uplink (FaultPlan.ReplyLoss).
	LostPolls, LostReplies int64
	// FallbackCalls counts calls whose nominal residing-area plan could
	// not contain the terminal (drift after lost or outage-deferred
	// updates) and escalated to the expanding recovery rounds.
	FallbackCalls int64
	// Retransmissions counts acked-update retransmissions triggered by
	// ack timeouts (FaultPlan.UpdateRetries).
	Retransmissions int64
	// Acks counts HLR acknowledgements sent for applied updates, and
	// AckBytes their wire bytes.
	Acks     int64
	AckBytes int64
	// RePolls counts recovery paging rounds: blanket re-polls of the
	// (expanding) residing area after the nominal plan came up empty.
	RePolls int64
	// DroppedCalls counts calls abandoned after the paging retry budget
	// (FaultPlan.PageRetries) was exhausted; dropped calls contribute no
	// delay sample, so Delay.N() == Calls − DroppedCalls.
	DroppedCalls int64
	// OutageDeferred counts updates that reached the HLR during a
	// scheduled outage window (FaultPlan.Outages) and were not applied.
	OutageDeferred int64
	// Recovery is the HLR desync→recovery latency in slots: one sample
	// per episode in which the network's record diverged from the
	// terminal's view (lost or outage-deferred update) and later
	// re-synced (successful update or page re-center). Its samples are
	// exact tick counts (SlotTicks per slot), like Delay's.
	Recovery stats.Moments
	// DelayHist and RecoveryHist are fixed-bucket histograms of the same
	// samples Delay and Recovery accumulate, exposing the tail quantiles
	// (p50/p95/p99/max) the moments cannot. Bucket counts merge by
	// exact integer addition, so they are shard-count invariant like
	// every other aggregate. Always populated by the engine; may be nil
	// on hand-built Metrics.
	DelayHist    *telemetry.Hist
	RecoveryHist *telemetry.Hist
	// Snapshots is the merged run-telemetry snapshot series, captured
	// every Config.Telemetry.SnapshotEvery slots (empty when telemetry is
	// off). It is assembled once by RunSharded from the per-shard
	// series; Merge deliberately leaves it untouched (partial series
	// from different engines cannot be combined).
	Snapshots []telemetry.Frame
	// ThresholdSlots[d] counts terminal-slots spent operating at
	// threshold d (interesting under Dynamic).
	ThresholdSlots map[int]int64
	// Events counts the scheduler events a single-engine run dispatches:
	// one slot sweep per slot plus every sub-slot paging event. Shard
	// metrics carry only their per-terminal share (the slot sweeps are
	// added back once after merging), keeping the count shard-invariant.
	Events uint64
	// PerTerminal holds per-terminal breakdowns in global id order.
	PerTerminal []TerminalStats
	// costs retains the unit costs so Merge can recompute the per-slot
	// averages from merged counters.
	costs core.Costs
}

// TerminalStats is one terminal's share of the run.
type TerminalStats struct {
	// ID is the terminal's global id (its index in a single-engine run).
	ID int
	// Updates, Calls and PolledCells count this terminal's operations.
	Updates, Calls, PolledCells int64
	// TotalCost is the terminal's per-slot average cost in U/V units.
	TotalCost float64
	// FinalThreshold is the threshold in effect when the run ended.
	FinalThreshold int
}

// Merge folds o — the metrics of a disjoint set of terminals simulated
// over the same slots with the same unit costs — into m, which may be the
// zero value. Counters and the Delay/Recovery moments are summed, the
// ThresholdSlots and latency histograms are added bucket-wise,
// PerTerminal records are concatenated and kept sorted by global id, and
// the per-slot cost averages are recomputed from the merged counters.
// Every merged quantity is an exact integer sum, so folding any
// partition of the same population, in any order, yields bit-identical
// Metrics — the shard-count-invariance contract of RunSharded.
//
// Merging metrics simulated over different slot counts is meaningless
// (the per-slot averages would mix incompatible denominators) and panics;
// a zero Slots on either side is treated as "not yet set" and adopts the
// other. Snapshots are left untouched: the snapshot series is assembled
// once by the engine, not by pairwise merging.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	if m.Slots == 0 {
		m.Slots = o.Slots
		m.costs = o.costs
	} else if o.Slots != 0 && o.Slots != m.Slots {
		panic(fmt.Sprintf("sim: merging metrics over mismatched slot counts %d and %d", m.Slots, o.Slots))
	}
	m.Terminals += o.Terminals
	m.Updates += o.Updates
	m.Calls += o.Calls
	m.PolledCells += o.PolledCells
	m.UpdateBytes += o.UpdateBytes
	m.PollBytes += o.PollBytes
	m.ReplyBytes += o.ReplyBytes
	m.NotFound += o.NotFound
	m.LostUpdates += o.LostUpdates
	m.LostPolls += o.LostPolls
	m.LostReplies += o.LostReplies
	m.FallbackCalls += o.FallbackCalls
	m.Retransmissions += o.Retransmissions
	m.Acks += o.Acks
	m.AckBytes += o.AckBytes
	m.RePolls += o.RePolls
	m.DroppedCalls += o.DroppedCalls
	m.OutageDeferred += o.OutageDeferred
	m.Events += o.Events
	m.Delay.Merge(&o.Delay)
	m.Recovery.Merge(&o.Recovery)
	if o.DelayHist != nil {
		if m.DelayHist == nil {
			m.DelayHist = o.DelayHist.Clone()
		} else {
			m.DelayHist.Merge(o.DelayHist)
		}
	}
	if o.RecoveryHist != nil {
		if m.RecoveryHist == nil {
			m.RecoveryHist = o.RecoveryHist.Clone()
		} else {
			m.RecoveryHist.Merge(o.RecoveryHist)
		}
	}
	if len(o.ThresholdSlots) > 0 && m.ThresholdSlots == nil {
		m.ThresholdSlots = make(map[int]int64, len(o.ThresholdSlots))
	}
	for d, n := range o.ThresholdSlots {
		m.ThresholdSlots[d] += n
	}
	m.PerTerminal = append(m.PerTerminal, o.PerTerminal...)
	sort.Slice(m.PerTerminal, func(i, j int) bool {
		return m.PerTerminal[i].ID < m.PerTerminal[j].ID
	})
	m.recompute()
}

// recompute rebuilds the per-slot cost averages from the counters.
func (m *Metrics) recompute() {
	denom := float64(m.Slots) * float64(m.Terminals)
	if denom == 0 {
		m.UpdateCost, m.PagingCost, m.TotalCost = 0, 0, 0
		return
	}
	m.UpdateCost = float64(m.Updates) * m.costs.Update / denom
	m.PagingCost = float64(m.PolledCells) * m.costs.Poll / denom
	m.TotalCost = m.UpdateCost + m.PagingCost
}

// frameCounts holds the Metrics fields a telemetry frame reads (see
// network.snapshot) for one telemetry interval: the seven frame
// counters, the dispatched sub-slot events and the delay and recovery
// moments. The network writes those fields through network.win, never
// into Metrics directly, so an engine can count each interval apart
// while its terminals run ahead of one another; Metrics.fold adds an
// interval to the running totals. Every field is an exact integer sum,
// so folding the intervals in slot order reproduces the totals — and
// every frame — of counting straight into Metrics.
type frameCounts struct {
	telemetry.Counters
	Delay    stats.Moments
	Recovery stats.Moments // in ticks, like Metrics.Recovery
}

func newFrameCounts() frameCounts {
	return frameCounts{Recovery: stats.NewMoments(SlotTicks)}
}

// fold adds w to m's frame fields and Events, and empties w.
func (m *Metrics) fold(w *frameCounts) {
	m.Updates += w.Updates
	m.LostUpdates += w.LostUpdates
	m.Retransmissions += w.Retransmissions
	m.Calls += w.Calls
	m.PolledCells += w.PolledCells
	m.DroppedCalls += w.DroppedCalls
	m.RePolls += w.RePolls
	m.Events += w.Events
	m.Delay.Merge(&w.Delay)
	m.Recovery.Merge(&w.Recovery)
	*w = newFrameCounts()
}
