package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Latency histogram shapes: paging delay in polling cycles (unit
// buckets; a nominal plan never exceeds MaxThreshold+2 cycles) and
// desync-recovery latency in slots.
const (
	delayHistWidth      = 1
	delayHistBuckets    = 64
	recoveryHistWidth   = 64
	recoveryHistBuckets = 64
)

// RunSharded simulates the network for the given number of slots with the
// terminal population partitioned into shards independent shard
// simulations — each with its own discrete-event scheduler, HLR slice and
// RNG streams — executed concurrently on the sweep.Map pool and merged
// with Metrics.Merge. Terminals interact only through their own HLR
// record, so the partition is exact, not an approximation.
//
// Results are shard-count invariant: every terminal's RNG stream is
// derived from (cfg.Seed, terminal id) via stats.SubStream, and the merge
// reduces per-terminal records in global id order, so a given seed yields
// bit-identical Metrics for every shard count (including Run, the
// one-shard case). shards == 0 selects GOMAXPROCS; negative shard counts
// are rejected; shard counts beyond the population are clamped to one
// terminal per shard.
func RunSharded(cfg Config, slots int64, shards int) (*Metrics, error) {
	return RunShardedCtx(context.Background(), cfg, slots, shards)
}

// ctxCheckSlots bounds how many slots the columnar engine's pure
// stretch may run between cancellation checks when a cancellable
// context is in force. A stretch this long costs well under a
// millisecond, so the shard notices cancellation orders of magnitude
// inside any human deadline while a background context pays no
// per-slot check at all.
const ctxCheckSlots = 1 << 16

// RunShardedCtx is RunSharded under cooperative cancellation: when ctx is
// cancelled, shards that have not started are never dispatched and every
// in-flight shard stops within a bounded amount of work (the reference
// engine checks at each slot boundary, the columnar engine at least
// every ctxCheckSlots terminal-slots), so the call returns promptly with
// ctx.Err() instead of after run completion. A run that completes
// normally is untouched by the context machinery: results remain
// bit-identical to RunSharded for every shard count.
func RunShardedCtx(ctx context.Context, cfg Config, slots int64, shards int) (*Metrics, error) {
	return RunShardedOpts(ctx, cfg, slots, shards, RunOpts{})
}

// RunOpts carries the durability extensions to a sharded run: periodic
// checkpoint capture and resumption from a prior checkpoint. The zero
// value reproduces RunShardedCtx exactly.
type RunOpts struct {
	// Resume, when non-nil, continues the run recorded in the checkpoint
	// instead of starting from slot 0. The offered configuration must
	// match the checkpoint's run shape (slots, seed, shard count, start
	// threshold, engine class); the final Metrics are then bit-identical
	// to an uninterrupted run.
	Resume *Checkpoint
	// CheckpointEvery > 0 captures a consistent whole-run checkpoint at
	// every interior multiple of that many slots and hands it to
	// CheckpointSink. The sink is called on a shard goroutine (the last
	// shard to reach the boundary), in increasing slot order; it must not
	// retain the pointer past the call unless it finishes with it.
	CheckpointEvery int64
	CheckpointSink  func(*Checkpoint)
}

// RunShardedOpts is RunShardedCtx with checkpoint capture and resume.
// Checkpointing does not perturb results: a run observed through its
// sink checkpoints, or resumed from any of them, still produces
// bit-identical Metrics for every shard count and engine.
func RunShardedOpts(ctx context.Context, cfg Config, slots int64, shards int, opts RunOpts) (*Metrics, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg, slots); err != nil {
		return nil, err
	}
	if shards < 0 {
		return nil, fmt.Errorf("sim: negative shard count %d", shards)
	}
	if shards == 0 {
		if opts.Resume != nil {
			// A checkpoint is only valid for its own partition; an
			// unspecified shard count adopts it rather than guessing.
			shards = opts.Resume.Shards
		} else {
			shards = runtime.GOMAXPROCS(0)
		}
	}
	if shards > cfg.Terminals {
		shards = cfg.Terminals
	}
	startD, err := startThreshold(cfg)
	if err != nil {
		return nil, err
	}
	var loc locator = hexLocator{}
	if cfg.Core.Model == chain.OneDim {
		loc = lineLocator{}
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("sim: negative checkpoint cadence %d", opts.CheckpointEvery)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointSink == nil {
		return nil, errors.New("sim: checkpoint cadence without a sink")
	}
	if opts.Resume != nil {
		if err := validateResume(opts.Resume, cfg, slots, shards, startD); err != nil {
			return nil, err
		}
	}

	engine := shardEngine(cfg.Engine)
	var agg *ckptAggregator
	if opts.CheckpointEvery > 0 {
		upd, _ := resolveScheme(cfg.Scheme) // validated above
		shape := Checkpoint{Slots: slots, Shards: shards, StartD: startD,
			Seed: cfg.Seed, Engine: cfg.Engine,
			Scheme: upd.kind.String(), SchemeParam: upd.param}
		agg = newCkptAggregator(shape, shards, opts.CheckpointSink)
	}
	cfg.Telemetry.Progress.Init(shards)
	parts, err := sweep.MapCtx(ctx, shards, 0, func(ctx context.Context, s int) (shardResult, error) {
		r := shardRun{
			cfg:    cfg,
			slots:  slots,
			shard:  s,
			lo:     s * cfg.Terminals / shards,
			hi:     (s + 1) * cfg.Terminals / shards,
			startD: startD,
			loc:    loc,
			every:  opts.CheckpointEvery,
		}
		if opts.Resume != nil {
			r.resume = &opts.Resume.Shard[s]
		}
		if agg != nil {
			r.emit = func(sc ShardCheckpoint) { agg.add(s, sc) }
		}
		return engine(ctx, r)
	})
	if err != nil {
		return nil, err
	}

	// Sized once: growing the per-terminal records shard by shard would
	// reallocate (and leave as garbage) most of the population's records.
	merged := &Metrics{PerTerminal: make([]TerminalStats, 0, cfg.Terminals)}
	for _, p := range parts {
		merged.Merge(p.metrics)
	}
	// Each shard reported only its sub-slot events; add the slot-sweep
	// chain once, restoring the single-engine convention.
	merged.Events += uint64(slots)
	if cfg.Telemetry.SnapshotEvery > 0 {
		series := make([][]telemetry.ShardFrame, len(parts))
		for i, p := range parts {
			series[i] = p.frames
		}
		merged.Snapshots = telemetry.MergeFrames(series, cfg.Terminals,
			cfg.Core.Costs.Update, cfg.Core.Costs.Poll)
	}
	return merged, nil
}

// shardEngine returns the per-shard implementation of engine e; both
// RunShardedOpts and RunPartial dispatch through it.
func shardEngine(e Engine) func(context.Context, shardRun) (shardResult, error) {
	if e == EngineDES {
		return runShard
	}
	return runShardCols
}

// shardResult is one shard's share of a run: its metrics plus its
// telemetry snapshot series (nil when telemetry is off).
type shardResult struct {
	metrics *Metrics
	frames  []telemetry.ShardFrame
}

// shardRun is everything one engine invocation needs: the run shape, the
// shard's slice of the population, and the checkpoint plumbing (resume
// source and capture cadence/sink), both inactive in a plain run.
type shardRun struct {
	cfg    Config
	slots  int64
	shard  int
	lo, hi int
	startD int
	loc    locator
	// resume, when non-nil, is this shard's slice of the checkpoint the
	// run continues from (already validated against the run shape).
	resume *ShardCheckpoint
	// every > 0 asks the engine to capture a shard checkpoint at every
	// interior multiple of every slots and hand it to emit.
	every int64
	emit  func(ShardCheckpoint)
}

// validateResume rejects checkpoints that do not describe the offered
// run: resuming under a different shape would not merely be lossy, it
// would produce a report matching no configuration at all.
func validateResume(cp *Checkpoint, cfg Config, slots int64, shards, startD int) error {
	if cp.Slots != slots {
		return fmt.Errorf("sim: checkpoint is for %d slots, run wants %d", cp.Slots, slots)
	}
	if cp.Seed != cfg.Seed {
		return fmt.Errorf("sim: checkpoint seed %d does not match configured seed %d", cp.Seed, cfg.Seed)
	}
	if cp.StartD != startD {
		return fmt.Errorf("sim: checkpoint start threshold %d does not match run's %d", cp.StartD, startD)
	}
	upd, _ := resolveScheme(cfg.Scheme) // cfg was validated before resume
	cpScheme := cp.Scheme
	if cpScheme == "" {
		// Checkpoints written before the scheme field existed are all
		// distance-scheme runs; the gob zero value reads back as such.
		cpScheme = schemeDistance.String()
	}
	if cpScheme != upd.kind.String() || cp.SchemeParam != upd.param {
		return fmt.Errorf("sim: checkpoint is for update scheme %s(%d), run wants %s(%d)",
			cpScheme, cp.SchemeParam, upd.kind, upd.param)
	}
	if cp.Engine != cfg.Engine {
		return fmt.Errorf("sim: %s-engine checkpoint cannot resume on engine %s",
			cp.Engine, cfg.Engine)
	}
	if cp.Shards != shards || len(cp.Shard) != cp.Shards {
		return fmt.Errorf("sim: checkpoint partitions %d terminals into %d shards (%d recorded), run wants %d",
			cfg.Terminals, cp.Shards, len(cp.Shard), shards)
	}
	if cp.Slot <= 0 || cp.Slot >= slots {
		return fmt.Errorf("sim: checkpoint boundary %d outside (0, %d)", cp.Slot, slots)
	}
	for s := range cp.Shard {
		sc := &cp.Shard[s]
		lo := s * cfg.Terminals / shards
		hi := (s + 1) * cfg.Terminals / shards
		if sc.Lo != lo || sc.Hi != hi || sc.Slot != cp.Slot {
			return fmt.Errorf("sim: checkpoint shard %d covers [%d,%d) at slot %d, run wants [%d,%d) at %d",
				s, sc.Lo, sc.Hi, sc.Slot, lo, hi, cp.Slot)
		}
		width := hi - lo
		if len(sc.Terms) != width || len(sc.HLR) != width || len(sc.Metrics.PerTerminal) != width {
			return fmt.Errorf("sim: checkpoint shard %d holds %d terminals, run wants %d", s, len(sc.Terms), width)
		}
		if cp.Engine == EngineDES {
			if sc.DES == nil {
				return fmt.Errorf("sim: checkpoint shard %d missing reference-engine scheduler state", s)
			}
		} else if len(sc.Scheds) != width || len(sc.PreSweep) != width ||
			len(sc.CurD) != width || len(sc.RunLen) != width {
			return fmt.Errorf("sim: checkpoint shard %d missing columnar-engine scheduler state", s)
		}
	}
	return nil
}

// validate rejects unusable configurations; cfg must already carry its
// defaults.
func validate(cfg Config, slots int64) error {
	if err := cfg.Core.Validate(); err != nil {
		return err
	}
	if slots <= 0 {
		return errors.New("sim: slots must be positive")
	}
	if err := cfg.Faults.validate(); err != nil {
		return err
	}
	upd, err := resolveScheme(cfg.Scheme)
	if err != nil {
		return err
	}
	if cfg.Dynamic && upd.kind != schemeDistance {
		// The dynamic mechanism's decision variable is the distance
		// threshold; re-optimizing it under a trigger that ignores
		// distance would be meaningless.
		return fmt.Errorf("sim: the dynamic per-user mechanism requires the distance update scheme (got %s)", upd.kind)
	}
	if cfg.Threshold > cfg.MaxThreshold {
		return fmt.Errorf("sim: threshold %d exceeds MaxThreshold %d", cfg.Threshold, cfg.MaxThreshold)
	}
	if cfg.Telemetry.SnapshotEvery < 0 {
		return fmt.Errorf("sim: negative telemetry snapshot cadence %d", cfg.Telemetry.SnapshotEvery)
	}
	switch cfg.Engine {
	case EngineCols, EngineDES:
	default:
		return fmt.Errorf("sim: unknown engine %d", int(cfg.Engine))
	}
	// A full paging exchange — the nominal plan (at most MaxThreshold+2
	// cycles) plus every recovery round — must finish inside the arrival
	// slot, or paging would overlap the next movement opportunity.
	if 2*(cfg.MaxThreshold+2+cfg.Faults.PageRetries) >= SlotTicks {
		return fmt.Errorf("sim: MaxThreshold %d with %d paging retries needs more polling ticks than a slot holds (%d)",
			cfg.MaxThreshold, cfg.Faults.PageRetries, SlotTicks)
	}
	return nil
}

// startThreshold resolves the static threshold every terminal starts with;
// negative Config.Threshold means network-optimized. It runs once before
// sharding so every shard starts from the same d.
func startThreshold(cfg Config) (int, error) {
	if cfg.Threshold >= 0 {
		return cfg.Threshold, nil
	}
	res, err := core.Scan(cfg.Core, cfg.MaxThreshold)
	if err != nil {
		return 0, err
	}
	return res.Best.Threshold, nil
}

// newShardNetwork builds the starting state the engines share for
// terminals [lo, hi) of the global population: the network (HLR
// provisioned with every terminal's initial registration, shard-sized
// metrics) and the terminal population itself, laid out contiguously so
// the engines' sweeps walk memory in order. The per-terminal generators
// live in one flat returned slice — terminal i's rng points at element
// i — so engines that walk generator state columnarly (runShardCols)
// share the identical state the terminal structs use, and no engine
// pays a heap allocation per terminal.
func newShardNetwork(cfg Config, slots int64, lo, hi, startD int, loc locator) (*network, []terminal, []stats.RNG, error) {
	upd, err := resolveScheme(cfg.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	n := &network{
		cfg:   cfg,
		loc:   loc,
		upd:   upd,
		first: uint32(lo),
		hlr:   make([]hlrRecord, hi-lo),
		lastD: -1, // 0 is a valid threshold; the plan memo starts empty
		metrics: &Metrics{
			Slots:          slots,
			Terminals:      hi - lo,
			ThresholdSlots: make(map[int]int64),
			PerTerminal:    make([]TerminalStats, hi-lo),
			DelayHist:      telemetry.NewHist(delayHistWidth, delayHistBuckets),
			RecoveryHist:   telemetry.NewHist(recoveryHistWidth, recoveryHistBuckets),
			costs:          cfg.Core.Costs,
		},
		parts: make(map[int]partInfo),
	}

	terms := make([]terminal, hi-lo)
	rngs := make([]stats.RNG, hi-lo)
	for g := lo; g < hi; g++ {
		p := cfg.Core.Params
		if cfg.PerTerminal != nil {
			p = cfg.PerTerminal(g)
			if err := p.Validate(); err != nil {
				return nil, nil, nil, fmt.Errorf("sim: terminal %d: %w", g, err)
			}
		}
		t := &terms[g-lo]
		t.id = uint32(g)
		t.params = p
		rngs[g-lo].SeedSubStream(cfg.Seed, uint64(g))
		t.rng = &rngs[g-lo]
		t.est = estimator{alpha: cfg.EWMAAlpha}
		t.threshold = startD
		if p.Q > 0 {
			t.moveProb = p.Q / (1 - p.C)
		}
		n.metrics.PerTerminal[g-lo].ID = g
		// Initial registration (subscription-time provisioning, not a
		// mechanism update, so it is implicitly acknowledged).
		n.register(t.makeUpdate())
		t.ackedSeq = t.seq
	}
	return n, terms, rngs, nil
}

// finishShard folds the per-terminal tail metrics (mean cost rate, final
// threshold) and recomputes the shard's aggregates; both engines end here.
func finishShard(n *network, terms []terminal, slots int64) *Metrics {
	m := n.metrics
	for i := range m.PerTerminal {
		ts := &m.PerTerminal[i]
		ts.TotalCost = (float64(ts.Updates)*n.cfg.Core.Costs.Update +
			float64(ts.PolledCells)*n.cfg.Core.Costs.Poll) / float64(slots)
		ts.FinalThreshold = terms[i].threshold
	}
	m.recompute()
	return m
}

// runShard simulates terminals [r.lo, r.hi) of the global population on
// one discrete-event engine — the reference EngineDES implementation the
// columnar engine is differentially tested against. Its Metrics carry only
// this shard's share: Terminals is hi−lo, PerTerminal holds records for
// ids lo..hi−1 and Events counts sub-slot events only (the caller adds
// the slot sweeps once after merging). r.shard is the shard's index,
// used only for telemetry (progress reporting). Cancelling ctx stops the
// run at the next slot boundary (in-flight sub-slot events still drain)
// and returns ctx.Err().
//
// Checkpoints are captured at the top of a boundary slot's sweep event —
// after the telemetry frame, before the sweeps — so boundary B means "B
// slots completed" and the checkpoint embeds the boundary frame. The
// scheduler state is stored as if the boundary sweep event had not yet
// been dispatched (Ran excludes it, SlotEventSeq preserves its insertion
// stamp): resume re-creates that event with its original (time, stamp)
// key via InsertAt, so it keeps losing exactly the ties it lost against
// any retransmission timer due on the boundary, and the dispatch itself
// restores the event count. Everything downstream of the boundary then
// replays identically to the uninterrupted run.
func runShard(ctx context.Context, r shardRun) (shardResult, error) {
	cfg, slots := r.cfg, r.slots
	n, terms, rngs, err := newShardNetwork(cfg, slots, r.lo, r.hi, r.startD, r.loc)
	if err != nil {
		return shardResult{}, err
	}

	var sched des.Scheduler
	n.sched = &sched

	// Telemetry: frames capture the shard's cumulative state at slot
	// boundaries. Capturing at the top of the slot event — before the
	// sweep — covers exactly the events dispatched before the boundary
	// tick, an ordering that is identical for every shard count because
	// each terminal's events interleave with its own slot sweeps the same
	// way on any engine. The Events field subtracts this shard's slot
	// sweeps (slotEvents); the merge adds them back once globally.
	every := cfg.Telemetry.SnapshotEvery
	prog := cfg.Telemetry.Progress
	var frames []telemetry.ShardFrame
	capture := func(boundary int64, slotEvents uint64) {
		frames = append(frames, n.snapshot(boundary, sched.Processed()-slotEvents))
	}

	// One event per slot sweeps the shard's terminals: movement/update and
	// call arrivals; paging cycles run as sub-slot events. A cancelled
	// context stops the chain by not scheduling the next sweep: the
	// scheduler then drains only the bounded tail of sub-slot events
	// already queued, so the shard returns promptly.
	done := ctx.Done()
	cancelled := false
	var slot func()
	start := int64(0)
	cur := int64(0)
	// slotStamp is the insertion stamp of the currently-running slot
	// event, recorded when it was scheduled (checkpoints persist it as
	// SlotEventSeq).
	var slotStamp uint64
	slot = func() {
		if done != nil {
			select {
			case <-done:
				cancelled = true
				return
			default:
			}
		}
		if every > 0 && cur > start && cur%every == 0 {
			// The current slot event is already counted in Processed.
			// A resumed run skips the boundary it resumed at: that frame
			// was captured before the checkpoint and restored with it.
			capture(cur, uint64(cur)+1)
		}
		if r.every > 0 && cur > start && cur%r.every == 0 {
			sc := captureShardCore(n, terms, rngs, cur, r.lo, r.hi, frames)
			now, seq, ran, pending := sched.Checkpoint()
			sc.DES = &DESCheckpoint{
				Sched:        SchedCheckpoint{Now: uint64(now), Seq: seq, Ran: ran - 1, Pending: pending},
				SlotEventSeq: slotStamp,
			}
			r.emit(sc)
		}
		for i := range terms {
			t := &terms[i]
			n.metrics.ThresholdSlots[t.threshold]++
			n.sweepSlot(t, cur)
		}
		if cfg.Dynamic && cur > 0 && cur%cfg.ReoptimizeEvery == 0 {
			for i := range terms {
				n.reoptimize(&terms[i])
			}
		}
		cur++
		prog.Set(r.shard, cur, cur*int64(len(terms)), sched.Processed())
		if cur < slots {
			slotStamp = sched.SeqMark()
			sched.After(SlotTicks, slot)
		}
	}
	if r.resume != nil {
		if err := restoreShardCore(n, terms, rngs, r.resume); err != nil {
			return shardResult{}, err
		}
		frames = restoreFrames(r.resume.Frames)
		start = r.resume.Slot
		cur = start
		ds := r.resume.DES
		sched.Restore(des.Time(ds.Sched.Now), ds.Sched.Seq, ds.Sched.Ran, ds.Sched.Pending,
			ackBind(n, terms))
		slotStamp = ds.SlotEventSeq
		sched.InsertAt(des.Time(start)*SlotTicks, slotStamp, slot)
	} else {
		slotStamp = sched.SeqMark()
		sched.At(0, slot)
	}
	sched.Drain()
	if cancelled {
		return shardResult{}, ctx.Err()
	}
	if every > 0 {
		// The final frame always lands on the run boundary, covering the
		// whole run including any events drained after the last slot.
		capture(slots, uint64(slots))
	}
	prog.Set(r.shard, slots, slots*int64(len(terms)), sched.Processed())

	n.metrics.Events = sched.Processed() - uint64(slots)
	return shardResult{metrics: finishShard(n, terms, slots), frames: frames}, nil
}

// snapshot captures one telemetry frame of the shard's cumulative state:
// the counters plus a copy of the per-terminal delay/recovery accumulator
// states, which telemetry.MergeFrames re-folds in global id order so the
// merged series is independent of the shard count. events must already
// exclude this shard's slot sweeps.
func (n *network) snapshot(boundary int64, events uint64) telemetry.ShardFrame {
	m := n.metrics
	sf := telemetry.ShardFrame{
		Slot:  boundary,
		First: int(n.first),
		Counters: telemetry.Counters{
			Updates:         m.Updates,
			LostUpdates:     m.LostUpdates,
			Retransmissions: m.Retransmissions,
			Calls:           m.Calls,
			PolledCells:     m.PolledCells,
			DroppedCalls:    m.DroppedCalls,
			RePolls:         m.RePolls,
			Events:          events,
		},
		Delay:    make([]stats.Accumulator, len(m.PerTerminal)),
		Recovery: make([]stats.Accumulator, len(m.PerTerminal)),
	}
	for i := range m.PerTerminal {
		sf.Delay[i] = m.PerTerminal[i].Delay
		sf.Recovery[i] = m.PerTerminal[i].Recovery
	}
	return sf
}
