package sim

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Partial is the serializable outcome of running a contiguous slice
// [Lo, Hi) of the shards of a shards-way sharded run — the unit of work a
// cluster worker executes and ships back to its coordinator. Because every
// terminal's RNG stream is addressed by (Seed, terminal id) and shard s
// always covers terminals [s·T/shards, (s+1)·T/shards), a shard's partial
// is bit-identical no matter which machine produced it, and MergePartials
// folds any complete, disjoint set of partials into Metrics bit-identical
// to RunSharded on one machine — the cross-machine extension of the
// shard-count-invariance contract.
//
// The structure round-trips exactly through EncodePartial/DecodePartial:
// float64 values travel as bit patterns, which the per-terminal cost
// rates require.
type Partial struct {
	// Slots, Shards and Seed echo the run shape the partial belongs to;
	// MergePartials validates them against the offered configuration
	// rather than silently folding results from a different run.
	Slots  int64
	Shards int
	Seed   uint64
	// Lo and Hi delimit the shard slice [Lo, Hi) this partial covers.
	Lo, Hi int
	// Shard holds the per-shard results, indexed by shard − Lo.
	Shard []ShardPartial
}

// ShardPartial is one global shard's share of a Partial: everything the
// merge needs to rebuild the shard's Metrics exactly as finishShard left
// them on the producing machine.
type ShardPartial struct {
	// Shard is the global shard index; Lo and Hi are the shard's global
	// terminal range [Lo, Hi).
	Shard  int
	Lo, Hi int
	// SubEvents is the shard's sub-slot event count (the slot-sweep chain
	// is added back once by MergePartials, like RunSharded's merge).
	SubEvents uint64
	// Metrics is the shard's final measurement state in checkpoint form.
	Metrics MetricsCheckpoint
	// TotalCost and FinalThreshold carry finishShard's per-terminal tail
	// fields (indexed by terminal position within the shard); shipping
	// the computed float64 bit patterns keeps the merge arithmetic-free.
	TotalCost      []float64
	FinalThreshold []int
	// Snapshots is the shard's telemetry series; MergePartials
	// re-assembles the global series with telemetry.MergeFrames exactly
	// as a single-node run would.
	Snapshots []telemetry.ShardFrame
}

// RunPartial runs shards [lo, hi) of a shards-way partition of the
// configured population — the worker half of a distributed run. It
// plans and dispatches the shards through the same runPlan as
// RunShardedOpts (terminal ranges, RNG streams, start threshold), so the
// returned partial is bit-identical to the same shards' share of a
// single-node run.
// Unlike RunSharded, shards must be explicit (a GOMAXPROCS default would
// differ across machines). cfg.Telemetry.Progress, when set, is
// initialized for the full global shard count; only entries [lo, hi)
// receive updates. Cancelling ctx stops in-flight shards within a
// bounded amount of work and returns ctx.Err().
func RunPartial(ctx context.Context, cfg Config, slots int64, shards, lo, hi int) (*Partial, error) {
	p, err := newPartialPlan(cfg, slots, shards, "run")
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > shards || lo >= hi {
		return nil, fmt.Errorf("sim: shard slice [%d,%d) outside [0,%d)", lo, hi, shards)
	}
	if err := p.resolveStart(); err != nil {
		return nil, err
	}
	parts, err := p.run(ctx, lo, hi, RunOpts{})
	if err != nil {
		return nil, err
	}
	out := &Partial{
		Slots:  slots,
		Shards: shards,
		Seed:   p.cfg.Seed,
		Lo:     lo,
		Hi:     hi,
		Shard:  make([]ShardPartial, hi-lo),
	}
	for i, r := range parts {
		out.Shard[i] = p.exportShardPartial(lo+i, r)
	}
	return out, nil
}

// exportShardPartial converts shard's engine result into its wire form.
func (p *runPlan) exportShardPartial(shard int, r shardResult) ShardPartial {
	m := r.metrics
	sp := ShardPartial{
		Shard:          shard,
		SubEvents:      m.Events,
		Metrics:        exportMetrics(m),
		TotalCost:      make([]float64, len(m.PerTerminal)),
		FinalThreshold: make([]int, len(m.PerTerminal)),
		Snapshots:      r.frames,
	}
	sp.Lo, sp.Hi = p.span(shard)
	for i := range m.PerTerminal {
		sp.TotalCost[i] = m.PerTerminal[i].TotalCost
		sp.FinalThreshold[i] = m.PerTerminal[i].FinalThreshold
	}
	return sp
}

// PartialMismatchError reports a partial that does not describe the run
// it is being merged into: a different run shape (slots, shard count,
// seed), a shard slice that does not tile the expected partition, or
// histograms, moments or telemetry frames shaped unlike this engine's.
// Distinguishing it from structural corruption lets a coordinator treat
// the sender as confused (re-dispatch elsewhere) rather than the bytes
// as damaged.
type PartialMismatchError struct {
	// Field names the mismatched dimension ("slots", "shards", "seed",
	// "slice", "coverage", "hist", "moments", "frames"); Got and Want
	// are its two sides, stringified.
	Field string
	Got   string
	Want  string
}

func (e *PartialMismatchError) Error() string {
	return fmt.Sprintf("sim: partial %s mismatch: got %s, want %s", e.Field, e.Got, e.Want)
}

// Validate checks a Partial's internal structural consistency — the
// shard slice tiling, per-shard vector lengths, histogram presence —
// without reference to any configuration. DecodePartial output should be
// validated before use; the checks make a hostile document an error, not
// a panic (FuzzPartialDecode).
func (p *Partial) Validate() error {
	if p.Slots <= 0 {
		return fmt.Errorf("sim: partial with %d slots", p.Slots)
	}
	if p.Shards < 1 {
		return fmt.Errorf("sim: partial with %d shards", p.Shards)
	}
	if p.Lo < 0 || p.Hi > p.Shards || p.Lo >= p.Hi {
		return fmt.Errorf("sim: partial shard slice [%d,%d) outside [0,%d)", p.Lo, p.Hi, p.Shards)
	}
	if len(p.Shard) != p.Hi-p.Lo {
		return fmt.Errorf("sim: partial holds %d shard(s), slice [%d,%d) needs %d", len(p.Shard), p.Lo, p.Hi, p.Hi-p.Lo)
	}
	for i := range p.Shard {
		sp := &p.Shard[i]
		if sp.Shard != p.Lo+i {
			return fmt.Errorf("sim: partial shard %d out of place (want shard %d)", sp.Shard, p.Lo+i)
		}
		width := sp.Hi - sp.Lo
		if sp.Lo < 0 || width <= 0 {
			return fmt.Errorf("sim: partial shard %d covers [%d,%d)", sp.Shard, sp.Lo, sp.Hi)
		}
		mc := &sp.Metrics
		if len(mc.PerTerminal) != width || len(sp.TotalCost) != width || len(sp.FinalThreshold) != width {
			return fmt.Errorf("sim: partial shard %d holds %d terminal record(s), range [%d,%d) needs %d",
				sp.Shard, len(mc.PerTerminal), sp.Lo, sp.Hi, width)
		}
		if mc.DelayHist == nil || mc.RecoveryHist == nil {
			return fmt.Errorf("sim: partial shard %d missing latency histogram(s)", sp.Shard)
		}
	}
	return nil
}

// MergePartials folds a complete set of partials — every shard of the
// shards-way partition exactly once, in any grouping and order — into
// the Metrics a single-node RunSharded of the same configuration would
// produce, bit for bit: per-shard Metrics are rebuilt from the wire
// state, merged in global shard order, the slot-sweep event chain is
// added back once, and the telemetry series is assembled with
// telemetry.MergeFrames over all shards. A partial describing a
// different run shape is rejected with *PartialMismatchError; missing or
// duplicated shards and malformed per-shard state are plain errors.
func MergePartials(cfg Config, slots int64, shards int, parts []*Partial) (*Metrics, error) {
	plan, err := newPartialPlan(cfg, slots, shards, "merge")
	if err != nil {
		return nil, err
	}
	byShard := make([]*ShardPartial, shards)
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("sim: nil partial")
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.Slots != slots {
			return nil, &PartialMismatchError{Field: "slots",
				Got: fmt.Sprint(p.Slots), Want: fmt.Sprint(slots)}
		}
		if p.Shards != shards {
			return nil, &PartialMismatchError{Field: "shards",
				Got: fmt.Sprint(p.Shards), Want: fmt.Sprint(shards)}
		}
		if p.Seed != plan.cfg.Seed {
			return nil, &PartialMismatchError{Field: "seed",
				Got: fmt.Sprint(p.Seed), Want: fmt.Sprint(plan.cfg.Seed)}
		}
		for i := range p.Shard {
			sp := &p.Shard[i]
			if mis := sp.Metrics.checkShape(sp.Shard, sp.Snapshots, slots, plan.cfg.Telemetry.SnapshotEvery); mis != nil {
				return nil, mis
			}
			if byShard[sp.Shard] != nil {
				return nil, &PartialMismatchError{Field: "coverage",
					Got: fmt.Sprintf("shard %d twice", sp.Shard), Want: "each shard once"}
			}
			byShard[sp.Shard] = sp
		}
	}
	for s, sp := range byShard {
		if sp == nil {
			return nil, &PartialMismatchError{Field: "coverage",
				Got: fmt.Sprintf("shard %d missing", s), Want: fmt.Sprintf("all %d shards", shards)}
		}
		if lo, hi := plan.span(s); sp.Lo != lo || sp.Hi != hi {
			return nil, &PartialMismatchError{Field: "slice",
				Got:  fmt.Sprintf("shard %d over terminals [%d,%d)", s, sp.Lo, sp.Hi),
				Want: fmt.Sprintf("[%d,%d)", lo, hi)}
		}
	}
	// Shards are restored on demand, so the coordinator holds at most one
	// restored shard's metrics beside the merged result.
	return plan.merge(func(s int) shardResult {
		sp := byShard[s]
		return shardResult{metrics: plan.restorePartialMetrics(sp), frames: sp.Snapshots}
	}), nil
}

// checkShape rejects shard state shaped unlike this engine's: both
// histograms present with this engine's width and bucket count, the
// delay moments in cycles and the recovery moments in ticks and, under a
// telemetry cadence every, one frame per cadence boundary up to through
// plus one at through itself (a completed run's final slot), its
// moments in the same units. Such state passes the configuration-free
// structural checks (Partial.Validate, the checkpoint's vector lengths)
// but would panic in the histogram or moments merge. MergePartials and
// validateResume both gate on it; the Field is "hist", "moments" or
// "frames".
func (mc *MetricsCheckpoint) checkShape(shard int, frames []telemetry.ShardFrame, through, every int64) *PartialMismatchError {
	for _, h := range []struct {
		hist    *telemetry.Hist
		width   float64
		buckets int
	}{
		{mc.DelayHist, delayHistWidth, delayHistBuckets},
		{mc.RecoveryHist, recoveryHistWidth, recoveryHistBuckets},
	} {
		if h.hist == nil {
			return &PartialMismatchError{Field: "hist",
				Got: fmt.Sprintf("shard %d histogram missing", shard), Want: fmt.Sprintf("%v x %d", h.width, h.buckets)}
		}
		if h.hist.Width != h.width || len(h.hist.Counts) != h.buckets {
			return &PartialMismatchError{Field: "hist",
				Got:  fmt.Sprintf("shard %d histogram %v x %d", shard, h.hist.Width, len(h.hist.Counts)),
				Want: fmt.Sprintf("%v x %d", h.width, h.buckets)}
		}
	}
	if mis := checkUnits(shard, "metrics", &mc.Delay, &mc.Recovery); mis != nil {
		return mis
	}
	if every <= 0 {
		return nil
	}
	// Frames land on every multiple of the cadence and on the final slot.
	if want := (through + every - 1) / every; int64(len(frames)) != want {
		return &PartialMismatchError{Field: "frames",
			Got: fmt.Sprintf("shard %d with %d frames", shard, len(frames)), Want: fmt.Sprint(want)}
	}
	for k := range frames {
		f := &frames[k]
		if want := min(int64(k+1)*every, through); f.Slot != want {
			return &PartialMismatchError{Field: "frames",
				Got:  fmt.Sprintf("shard %d frame %d at slot %d", shard, k, f.Slot),
				Want: fmt.Sprintf("slot %d", want)}
		}
		if mis := checkUnits(shard, fmt.Sprintf("frame %d", k), &f.Delay, &f.Recovery); mis != nil {
			return mis
		}
	}
	return nil
}

// checkUnits rejects delay moments not counted in cycles or recovery
// moments not counted in ticks; where names the holder in the error.
func checkUnits(shard int, where string, delay, recovery *stats.Moments) *PartialMismatchError {
	if delay.Unit() != 1 || recovery.Unit() != SlotTicks {
		return &PartialMismatchError{Field: "moments",
			Got:  fmt.Sprintf("shard %d %s delay/recovery units %d/%d", shard, where, delay.Unit(), recovery.Unit()),
			Want: fmt.Sprintf("1/%d", SlotTicks)}
	}
	return nil
}

// restorePartialMetrics rebuilds one shard's Metrics exactly as
// finishShard left them on the producing machine: the measurement state
// restored bit-for-bit, global ids re-derived from the shard's terminal
// range, and the shipped tail fields (TotalCost, FinalThreshold) taken
// verbatim. The shard's structural consistency was checked by
// Partial.Validate.
func (p *runPlan) restorePartialMetrics(sp *ShardPartial) *Metrics {
	width := sp.Hi - sp.Lo
	m := &Metrics{
		Slots:       p.slots,
		Terminals:   width,
		Events:      sp.SubEvents,
		PerTerminal: make([]TerminalStats, width),
		costs:       p.cfg.Core.Costs,
	}
	sp.Metrics.restoreInto(m)
	for i := range m.PerTerminal {
		ts := &m.PerTerminal[i]
		ts.ID = sp.Lo + i
		ts.TotalCost = sp.TotalCost[i]
		ts.FinalThreshold = sp.FinalThreshold[i]
	}
	return m
}

// partMagic versions the partial wire format. Nothing decodes the gob
// formats before it: a worker and its coordinator run one binary.
var partMagic = []byte("PCNPART4")

// EncodePartial serializes a partial to the same self-checking byte
// format checkpoints use (codec.go). Float64 values travel as their bit
// patterns, so decoding on another machine reproduces every cost rate
// exactly, and equal partials encode to equal bytes. The error is
// always nil.
func EncodePartial(p *Partial) ([]byte, error) {
	return encodeFramed(partMagic, putPartial, p), nil
}

// DecodePartial parses bytes produced by EncodePartial, rejecting
// unknown formats, corrupted payloads (checksum mismatch) and payloads
// that do not parse (ErrMalformedPayload); it allocates memory
// proportional to len(data). The decoded structure is not yet
// validated; callers must run Partial.Validate before trusting it.
func DecodePartial(data []byte) (*Partial, error) {
	p := &Partial{}
	if err := decodeFramed(partMagic, "partial", getPartial, data, p); err != nil {
		return nil, err
	}
	return p, nil
}
