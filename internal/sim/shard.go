package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/wire"
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
// derived from (cfg.Seed, terminal id) via stats.SubStream, and every
// merged aggregate is an exact integer sum, so a given seed yields
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
// checkpoints and resumption from a prior checkpoint. The zero
// value reproduces RunShardedCtx exactly.
type RunOpts struct {
	// Resume, when non-nil, continues the run recorded in the checkpoint
	// instead of starting from slot 0. The offered configuration must
	// match the checkpoint's run shape (slots, seed, shard count, start
	// threshold, engine class); the final Metrics are then bit-identical
	// to an uninterrupted run.
	Resume *Checkpoint
	// CheckpointEvery > 0 takes a consistent whole-run checkpoint at
	// every interior multiple of that many slots and hands it to
	// CheckpointSink. Each shard encodes its section of the checkpoint
	// straight from its live state on its own goroutine; the sink is
	// called on the last shard to reach the boundary, in increasing slot
	// order, and no shard delivers its next boundary until the sink
	// returns. The checkpoint is the sink's to keep (the run holds no
	// reference to it) and carries its head fields and sections only:
	// EncodeCheckpoint frames the sections, and code that wants the
	// per-shard fields decodes them.
	CheckpointEvery int64
	CheckpointSink  func(*Checkpoint)
}

// RunShardedOpts is RunShardedCtx with periodic checkpoints and resume.
// Checkpointing does not perturb results: a run observed through its
// sink checkpoints, or resumed from any of them, still produces
// bit-identical Metrics for every shard count and engine.
func RunShardedOpts(ctx context.Context, cfg Config, slots int64, shards int, opts RunOpts) (*Metrics, error) {
	p, err := newRunPlan(cfg, slots)
	if err != nil {
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
	p.shards = min(shards, p.cfg.Terminals)
	if err := p.resolveStart(); err != nil {
		return nil, err
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("sim: negative checkpoint cadence %d", opts.CheckpointEvery)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointSink == nil {
		return nil, errors.New("sim: checkpoint cadence without a sink")
	}
	if cp := opts.Resume; cp != nil {
		if cp.sections != nil {
			// A checkpoint a run delivered carries its sections only;
			// resume reads their fields.
			data, _ := EncodeCheckpoint(cp)
			decoded, err := DecodeCheckpoint(data)
			if err != nil {
				return nil, err
			}
			opts.Resume = decoded
		}
		if err := p.validateResume(opts.Resume); err != nil {
			return nil, err
		}
	}
	parts, err := p.run(ctx, 0, p.shards, opts)
	if err != nil {
		return nil, err
	}
	return p.merge(func(s int) shardResult { return parts[s] }), nil
}

// runPlan is the shape every sharded path shares — the single-node run
// and its resume (RunShardedOpts), a cluster worker's slice
// (RunPartial) and the coordinator's fold (MergePartials): the
// validated, defaulted configuration, the run length, the shard count,
// the start threshold and the cell locator. Shard geometry, dispatch
// and the merge convention are decided here once, so every path
// partitions and folds the population identically.
type runPlan struct {
	cfg    Config
	slots  int64
	shards int
	// startD is resolved only by the paths that run shards (resolveStart);
	// the merge needs none, and a network-optimized threshold costs a
	// core.Scan.
	startD int
	loc    locator
}

// newRunPlan validates cfg for a run of slots slots; the caller settles
// the shard count.
func newRunPlan(cfg Config, slots int64) (*runPlan, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg, slots); err != nil {
		return nil, err
	}
	p := &runPlan{cfg: cfg, slots: slots, loc: hexLocator{}}
	if cfg.Core.Model == chain.OneDim {
		p.loc = lineLocator{}
	}
	return p, nil
}

// newPartialPlan is newRunPlan for the cluster paths, whose shard count
// must be explicit: a GOMAXPROCS default would differ across machines.
// op names the caller in the error.
func newPartialPlan(cfg Config, slots int64, shards int, op string) (*runPlan, error) {
	p, err := newRunPlan(cfg, slots)
	if err != nil {
		return nil, err
	}
	if shards < 1 || shards > p.cfg.Terminals {
		return nil, fmt.Errorf("sim: partial %s needs an explicit shard count in [1, %d], got %d", op, p.cfg.Terminals, shards)
	}
	p.shards = shards
	return p, nil
}

// resolveStart resolves the static threshold every terminal starts with;
// negative Config.Threshold means network-optimized. It runs once before
// sharding so every shard starts from the same d.
func (p *runPlan) resolveStart() error {
	if p.cfg.Threshold >= 0 {
		p.startD = p.cfg.Threshold
		return nil
	}
	res, err := core.Scan(p.cfg.Core, p.cfg.MaxThreshold)
	if err != nil {
		return err
	}
	p.startD = res.Best.Threshold
	return nil
}

// span is shard s's global terminal range [lo, hi).
func (p *runPlan) span(s int) (lo, hi int) {
	return s * p.cfg.Terminals / p.shards, (s + 1) * p.cfg.Terminals / p.shards
}

// run simulates shards [lo, hi) concurrently on the sweep pool, each on
// the configured engine, and returns their results in shard order. opts
// threads the checkpoint plumbing through (a resume must already have
// passed validateResume). cfg.Telemetry.Progress, when set, is
// initialized for the full shard count; only entries [lo, hi) receive
// updates.
func (p *runPlan) run(ctx context.Context, lo, hi int, opts RunOpts) ([]shardResult, error) {
	engine := runShardCols
	if p.cfg.Engine == EngineDES {
		engine = runShard
	}
	var agg *ckptAggregator
	if opts.CheckpointEvery > 0 {
		upd, _ := resolveScheme(p.cfg.Scheme) // validated by newRunPlan
		shape := Checkpoint{Slots: p.slots, Shards: p.shards, StartD: p.startD,
			Seed: p.cfg.Seed, Engine: p.cfg.Engine,
			Scheme: upd.kind.String(), SchemeParam: upd.param}
		agg = newCkptAggregator(shape, opts.CheckpointSink)
	}
	p.cfg.Telemetry.Progress.Init(p.shards)
	return sweep.MapCtx(ctx, hi-lo, 0, func(ctx context.Context, i int) (shardResult, error) {
		s := lo + i
		r := shardRun{runPlan: p, shard: s, every: opts.CheckpointEvery}
		r.lo, r.hi = p.span(s)
		if opts.Resume != nil {
			r.resume = &opts.Resume.Shard[s]
		}
		if agg != nil {
			r.emit = func(slot int64, section []byte) { agg.add(s, slot, section) }
		}
		return engine(ctx, r)
	})
}

// merge folds every shard's result, fetched by shard(s) in global shard
// order, into whole-run Metrics: Metrics.Merge per shard, the slot-sweep
// event chain added back once (each shard reports only its sub-slot
// events), and the telemetry series assembled by telemetry.MergeFrames.
// shard is called once per shard and its metrics are folded before the
// next call, so a caller that builds shards on demand holds only one at
// a time.
func (p *runPlan) merge(shard func(s int) shardResult) *Metrics {
	// Sized once: growing the per-terminal records shard by shard would
	// reallocate (and leave as garbage) most of the population's records.
	merged := &Metrics{PerTerminal: make([]TerminalStats, 0, p.cfg.Terminals),
		Recovery: stats.NewMoments(SlotTicks)}
	series := make([][]telemetry.ShardFrame, p.shards)
	for s := range series {
		r := shard(s)
		merged.Merge(r.metrics)
		series[s] = r.frames
	}
	merged.Events += uint64(p.slots)
	if p.cfg.Telemetry.SnapshotEvery > 0 {
		merged.Snapshots = telemetry.MergeFrames(series, p.cfg.Terminals,
			p.cfg.Core.Costs.Update, p.cfg.Core.Costs.Poll)
	}
	return merged
}

// shardResult is one shard's share of a run: its metrics plus its
// telemetry snapshot series (nil when telemetry is off).
type shardResult struct {
	metrics *Metrics
	frames  []telemetry.ShardFrame
}

// shardRun is everything one engine invocation needs: the run plan, the
// shard's slice of the population, and the checkpoint plumbing (resume
// source and checkpoint cadence/sink), both inactive in a plain run.
type shardRun struct {
	*runPlan
	shard  int
	lo, hi int
	// resume, when non-nil, is this shard's slice of the checkpoint the
	// run continues from (already validated against the run shape).
	resume *ShardCheckpoint
	// every > 0 asks the engine to encode its section of a checkpoint at
	// every interior multiple of every slots and hand it to emit.
	every int64
	emit  func(slot int64, section []byte)
}

// validateResume rejects checkpoints that do not describe the offered
// run: resuming under a different shape would not merely be lossy, it
// would produce a report matching no configuration at all. It also
// rejects state no engine could have written — misshapen histograms,
// moments or telemetry frames, scheduler events the restore would panic
// on — so a damaged checkpoint is an error the caller can fall back
// from, never a panic on a shard goroutine.
func (p *runPlan) validateResume(cp *Checkpoint) error {
	cfg, slots := p.cfg, p.slots
	if cp.Slots != slots {
		return fmt.Errorf("sim: checkpoint is for %d slots, run wants %d", cp.Slots, slots)
	}
	if cp.Seed != cfg.Seed {
		return fmt.Errorf("sim: checkpoint seed %d does not match configured seed %d", cp.Seed, cfg.Seed)
	}
	if cp.StartD != p.startD {
		return fmt.Errorf("sim: checkpoint start threshold %d does not match run's %d", cp.StartD, p.startD)
	}
	upd, _ := resolveScheme(cfg.Scheme) // validated by newRunPlan
	if cp.Scheme != upd.kind.String() || cp.SchemeParam != upd.param {
		return fmt.Errorf("sim: checkpoint is for update scheme %s(%d), run wants %s(%d)",
			cp.Scheme, cp.SchemeParam, upd.kind, upd.param)
	}
	if cp.Engine != cfg.Engine {
		return fmt.Errorf("sim: %s-engine checkpoint cannot resume on engine %s",
			cp.Engine, cfg.Engine)
	}
	if cp.Shards != p.shards || cp.Shards < 1 || len(cp.Shard) != cp.Shards {
		return fmt.Errorf("sim: checkpoint partitions %d terminals into %d shards (%d recorded), run wants %d",
			cfg.Terminals, cp.Shards, len(cp.Shard), p.shards)
	}
	if cp.Slot <= 0 || cp.Slot >= slots {
		return fmt.Errorf("sim: checkpoint boundary %d outside (0, %d)", cp.Slot, slots)
	}
	// The telemetry frames captured so far: one per cadence boundary
	// up to and including the checkpoint's.
	framed := cp.Slot
	if every := cfg.Telemetry.SnapshotEvery; every > 0 {
		framed -= cp.Slot % every
	}
	for s := range cp.Shard {
		sc := &cp.Shard[s]
		lo, hi := p.span(s)
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
		for i := range sc.Terms {
			// Runs keep every threshold in [0, MaxThreshold]; the paging
			// geometry panics on a negative one.
			if d, h := sc.Terms[i].Threshold, sc.HLR[i].Threshold; min(d, h) < 0 || max(d, h) > cfg.MaxThreshold {
				return fmt.Errorf("sim: checkpoint shard %d terminal %d threshold %d (registry %d) outside [0, %d]",
					s, i, d, h, cfg.MaxThreshold)
			}
		}
		if mis := sc.Metrics.checkShape(s, sc.Snapshots, framed, cfg.Telemetry.SnapshotEvery); mis != nil {
			return fmt.Errorf("sim: checkpoint %s mismatch: got %s, want %s", mis.Field, mis.Got, mis.Want)
		}
		// Resume rebinds every pending event to an ack timer of the
		// shard (ackTag) and replays events by (time, stamp), so each must
		// name a terminal of the shard, carry a stamp below its
		// scheduler's counter and be due no earlier than its clock.
		scheds := sc.Scheds
		if ds := sc.DES; cp.Engine == EngineDES {
			// The boundary slot event is re-inserted the same way.
			if ds.SlotEventSeq >= ds.Sched.Seq || uint64(cp.Slot)*SlotTicks < ds.Sched.Now {
				return fmt.Errorf("sim: checkpoint shard %d slot event (stamp %d, time %d) outside scheduler (counter %d, now %d)",
					s, ds.SlotEventSeq, uint64(cp.Slot)*SlotTicks, ds.Sched.Seq, ds.Sched.Now)
			}
			scheds = []SchedCheckpoint{ds.Sched}
		}
		for _, sched := range scheds {
			for _, e := range sched.Pending {
				if i := e.Tag >> 32; i >= uint64(width) || e.Seq >= sched.Seq || uint64(e.At) < sched.Now {
					return fmt.Errorf("sim: checkpoint shard %d pending event (terminal %d, stamp %d, time %d) outside scheduler (%d terminals, counter %d, now %d)",
						s, i, e.Seq, e.At, width, sched.Seq, sched.Now)
				}
			}
		}
	}
	return nil
}

// Validate reports whether the engines accept cfg for a run of slots
// slots, with the error a run would fail with; it is the check every run
// entry point makes before any work starts.
func Validate(cfg Config, slots int64) error {
	return validate(cfg.withDefaults(), slots)
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
	if cfg.ReoptimizeEvery < 0 {
		return fmt.Errorf("sim: negative re-optimization period %d", cfg.ReoptimizeEvery)
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

// newShardNetwork builds the starting state the engines share for
// terminals [lo, hi) of the global population: the network (its
// per-terminal columns, the HLR provisioned with every terminal's
// initial registration, shard-sized metrics) and the terminal population
// itself, laid out contiguously so the engines' sweeps walk memory in
// order. The per-terminal generators live in one flat returned slice —
// terminal i's rng points at element i — so engines that walk generator
// state columnarly (runShardCols) share the identical state the terminal
// structs use, and no engine pays a heap allocation per terminal.
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
		hlr:   make([]HLRRecord, hi-lo),
		pos:   make([]wire.Cell, hi-lo),
		ctr:   make([]wire.Cell, hi-lo),
		thr:   make([]int32, hi-lo),
		callT: make([]uint64, hi-lo),
		moveT: make([]uint64, hi-lo),
		lastD: -1, // 0 is a valid threshold; the plan memo starts empty
		metrics: &Metrics{
			Slots:          slots,
			Terminals:      hi - lo,
			ThresholdSlots: make(map[int]int64),
			PerTerminal:    make([]TerminalStats, hi-lo),
			Recovery:       stats.NewMoments(SlotTicks),
			DelayHist:      telemetry.NewHist(delayHistWidth, delayHistBuckets),
			RecoveryHist:   telemetry.NewHist(recoveryHistWidth, recoveryHistBuckets),
			costs:          cfg.Core.Costs,
		},
		parts: make(map[int]partInfo),
		acc:   newFrameCounts(),
	}
	n.win = &n.acc

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
		i := g - lo
		t := &terms[i]
		t.id = uint32(g)
		rngs[i].SeedSubStream(cfg.Seed, uint64(g))
		t.rng = &rngs[i]
		n.thr[i] = int32(startD)
		n.callT[i] = stats.BernoulliThreshold(p.C)
		if p.Q > 0 {
			n.moveT[i] = stats.BernoulliThreshold(p.Q / (1 - p.C))
		}
		n.metrics.PerTerminal[i].ID = g
		// Initial registration (subscription-time provisioning, not a
		// mechanism update, so it is implicitly acknowledged).
		n.register(n.makeUpdate(t))
		t.ackedSeq = t.seq
	}
	return n, terms, rngs, nil
}

// finishShard folds the per-terminal tail metrics (mean cost rate, final
// threshold) and recomputes the shard's aggregates; both engines end here.
func finishShard(n *network, slots int64) *Metrics {
	m := n.metrics
	for i := range m.PerTerminal {
		ts := &m.PerTerminal[i]
		ts.TotalCost = costRate(ts, n.cfg.Core.Costs, slots)
		ts.FinalThreshold = int(n.thr[i])
	}
	m.recompute()
	return m
}

// costRate is a terminal's per-slot average cost in U/V units: its
// updates and polled cells at the unit costs, over slots. finishShard
// computes it on the machine that ran the shard, restorePartialMetrics
// on the coordinator from the shipped counts, so each product sits in
// an explicit conversion: Go may fuse x*y + z into one multiply-add
// with a single rounding on some architectures (arm64, ppc64le, s390x),
// and the conversion forbids that, so every machine rounds each product
// and the sum apart, as amd64 does, and computes the same bits.
func costRate(ts *TerminalStats, costs core.Costs, slots int64) float64 {
	return (float64(float64(ts.Updates)*costs.Update) +
		float64(float64(ts.PolledCells)*costs.Poll)) / float64(slots)
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
// Checkpoint sections are encoded at the top of a boundary slot's sweep
// event — after the telemetry frame, before the sweeps — so boundary B
// means "B slots completed" and the checkpoint embeds the boundary
// frame. The
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

	// The shard's one scheduler, held in a one-element slice so a
	// checkpoint boundary can write it as the columnar engine writes its
	// per-terminal ones.
	scheds := make([]des.Scheduler, 1)
	sched := &scheds[0]
	n.sched = sched
	ls := &liveShard{lo: r.lo, hi: r.hi, n: n, terms: terms, rngs: rngs, scheds: scheds}

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
		n.metrics.fold(&n.acc)
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
			n.metrics.fold(&n.acc)
			ls.slot, ls.frames, ls.slotStamp = cur, frames, slotStamp
			r.emit(cur, ls.encode())
		}
		for i := range terms {
			n.metrics.ThresholdSlots[int(n.thr[i])]++
			n.sweepSlot(&terms[i], cur)
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
		restoreShardCore(n, terms, rngs, r.resume)
		frames = slices.Clone(r.resume.Snapshots)
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

	n.metrics.fold(&n.acc)
	n.metrics.Events = sched.Processed() - uint64(slots)
	return shardResult{metrics: finishShard(n, slots), frames: frames}, nil
}

// snapshot captures one telemetry frame of the shard's cumulative state:
// the counters and the delay/recovery moments. Every frame count up to
// boundary must already be folded into the metrics (frameCounts), and
// events must exclude this shard's slot sweeps.
func (n *network) snapshot(boundary int64, events uint64) telemetry.ShardFrame {
	m := n.metrics
	return telemetry.ShardFrame{
		Slot: boundary,
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
		Delay:    m.Delay,
		Recovery: m.Recovery,
	}
}
