package sim

import (
	"context"

	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The columnar cohort engine (EngineCols), the default.
//
// The reference engine pays the full discrete-event machinery for every
// slot of every terminal — a heap-driven sweep event, a map increment and
// two Bernoulli draws per terminal-slot — even though under the paper's
// parameters (q, c ≪ 1) the overwhelming majority of terminal-slots do
// nothing that needs an event queue at all. The columnar engine inverts
// the loop: terminals advance through whole slot batches in memory
// order, each with its own small scheduler that stays cold on pure
// slots — paging exchanges run inline through pageInline, and only
// update/ack/retry machinery arms the scheduler, after which the
// affected slots fall back to the event path until the queue drains.
//
// Bit-identity with the reference engine is a contract, not an accident
// (see TestFastPathEquivalence). It rests on three facts:
//
//  1. Per-terminal draw order is untouched. Pure stretches consume the
//     stream positions of network.sweepSlot's draw order — call, then
//     movement, then the in-move direction — with exact integer
//     Bernoulli thresholds (stats.BernoulliThreshold documents the
//     exactness), pageInline replays the paging chain's loss draws in
//     chain order, and slow slots run sweepSlot itself.
//
//  2. Cross-terminal state is commutative. Terminals meet only in
//     integer counters, fixed-bucket histograms, per-terminal HLR
//     records and the threshold-keyed paging-plan cache, so reordering
//     the sweeps across terminals cannot change any result. (callSeq
//     values are assigned in a different order, but calls are compared
//     only for equality within one terminal's paging chain and wire
//     encodings are fixed-length, so nothing observable shifts.)
//
//  3. Per-terminal event timing replays the reference tie-break. Within
//     one terminal, the reference engine orders a queued event against a
//     slot boundary by (time, insertion order) against that slot's sweep
//     event, whose insertion stamp is assigned at the end of the
//     previous slot's sweep. The engine reproduces the stamp with
//     SeqMark after each sweep that touches the scheduler (the preSweep
//     column) and splits each armed slot into the same two phases with
//     RunBefore: events due before the sweep, then the sweep, then
//     events due before the next boundary. Pure slots leave the mark
//     alone — the per-terminal insertion counter only advances when
//     something is scheduled, so the stale mark still classifies every
//     queued event exactly as the reference engine's growing global
//     counter would.
//
// The engine also splits the state by temperature. The few words the
// per-slot decision actually needs — position, center, threshold, the
// precomputed call/move thresholds, the RNG state and the scheduler
// bookkeeping — live in flat parallel slices (one cache-dense column
// each), while the terminal structs are kept as a cold mirror that only
// event handling touches: scheduled closures (ack timers) capture
// *terminal, so those pointers must stay stable and the struct fields
// must be current whenever network code runs. The engine walks terminals
// in cohorts of colsCohortTerminals per slot batch, which bounds how
// stale the cohort-granular progress accounting can get and gives
// cancellation a natural check boundary.
//
// Inside a terminal's event-free stretch the engine stops asking "did
// anything happen this slot?" and instead asks "how many slots until
// something happens?" — stats.RNG.EventGap draws the gap to the next
// call-or-move event directly. The gap sampler is the per-slot threshold
// scan itself (one call draw, then one move draw, per slot, in sweepSlot
// order), so it consumes the identical stream positions as per-slot
// draws and bit-identity is preserved by construction; what it buys is
// that the generator state, position and center stay in registers for
// the whole stretch instead of round-tripping through memory every slot.
// Cell geometry is inlined on a concrete grid.Hex/grid.Line branch
// rather than called through the locator interface: an interface call
// would force the register-resident RNG copy to escape to the heap,
// and the hot loop must not allocate at any population size.
//
// Slots are processed in batches bounded by the telemetry cadence, so
// each snapshot observes exactly the state the reference engine would
// capture at that boundary. Checkpoint boundaries also bound the
// batches; subdividing a batch is harmless (contract note 2, and each
// terminal's per-slot work is identical wherever the batch edges fall).
// A checkpoint captures each terminal's scheduler verbatim (clock, stamp
// counter, pending retransmission timers by tag) plus the preSweep mark
// and the batched threshold-usage accumulator — exactly the state the
// engine carries across a batch edge — and resume re-enters the loop at
// the boundary.

// colsCohortTerminals is the cohort width: terminals are advanced
// through each slot batch in blocks of this many. The hot columns of a
// cohort (~100 B/terminal) fit comfortably in L2, and a cohort is the
// granularity of progress publication.
const colsCohortTerminals = 4096

// colsState holds the hot columns, indexed by terminal position within
// the shard. The RNG column is the flat slice newShardNetwork seeds —
// terminal i's rng pointer aliases element i, so the cold paths and the
// columnar kernel consume one and the same stream.
type colsState struct {
	rngs []stats.RNG
	// pos and ctr mirror terminal.pos and terminal.center; thr mirrors
	// terminal.threshold. The columns are authoritative between cold
	// calls; syncTerminal/syncColumns move the values across.
	pos []wire.Cell
	ctr []wire.Cell
	thr []int32
	// callT and moveT are the precomputed integer Bernoulli thresholds
	// for the per-slot call and movement draws (stats.BernoulliThreshold
	// of params.C and moveProb; both are fixed for the whole run).
	callT []uint64
	moveT []uint64
	// sched is the terminal's own scheduler and preSweep the SeqMark
	// where the reference engine's next slot-sweep event would sit in its
	// insertion order (contract note 3): a queued event on a slot
	// boundary runs before the boundary's sweep (and before any telemetry
	// capture) exactly when its stamp is below the mark. curD and runLen
	// batch the per-slot threshold-usage accounting: runLen consecutive
	// slots spent at threshold curD, flushed to Metrics.ThresholdSlots
	// only when the threshold changes or the run ends — the reference
	// engine's per-terminal-slot map increment is the single largest cost
	// it pays.
	sched    []des.Scheduler
	preSweep []uint64
	curD     []int32
	runLen   []int64
}

func newColsState(terms []terminal, rngs []stats.RNG, startD int) *colsState {
	n := len(terms)
	c := &colsState{
		rngs:     rngs,
		pos:      make([]wire.Cell, n),
		ctr:      make([]wire.Cell, n),
		thr:      make([]int32, n),
		callT:    make([]uint64, n),
		moveT:    make([]uint64, n),
		sched:    make([]des.Scheduler, n),
		preSweep: make([]uint64, n),
		curD:     make([]int32, n),
		runLen:   make([]int64, n),
	}
	for i := range terms {
		t := &terms[i]
		c.pos[i] = t.pos
		c.ctr[i] = t.center
		c.thr[i] = int32(t.threshold)
		c.callT[i] = stats.BernoulliThreshold(t.params.C)
		c.moveT[i] = stats.BernoulliThreshold(t.moveProb)
		c.curD[i] = int32(startD)
	}
	return c
}

// syncTerminal refreshes the cold struct mirror from the columns, so
// network code (sweeps, paging, update exchanges, queued timers) sees
// the terminal's current state.
func (c *colsState) syncTerminal(t *terminal, i int) {
	t.pos = c.pos[i]
	t.center = c.ctr[i]
	t.threshold = int(c.thr[i])
}

// syncColumns writes the struct mirror back to the columns after cold
// code may have changed it.
func (c *colsState) syncColumns(t *terminal, i int) {
	c.pos[i] = t.pos
	c.ctr[i] = t.center
	c.thr[i] = int32(t.threshold)
}

// flushThreshold credits terminal i's batched threshold-usage run.
// Flushes always carry runLen ≥ 1 once a slot has run, so the map never
// grows zero-valued keys the reference engine would not have.
func (c *colsState) flushThreshold(i int, m *Metrics) {
	if c.runLen[i] > 0 {
		m.ThresholdSlots[int(c.curD[i])] += c.runLen[i]
	}
}

// runShardCols simulates terminals [lo, hi) with the columnar cohort
// engine, bit-identical to runShard for every configuration: same
// Metrics, same telemetry frame series, same histograms. Slot batches
// are bounded by the telemetry and checkpoint cadences, frames are
// captured at the boundaries, and late timers drain after the last
// batch; within a batch, terminals advance in cohorts, and within a
// terminal, event-free stretches collapse into EventGap draws on
// register-resident state.
//
// A cancellable ctx is polled between per-terminal slot chunks, with
// pure stretches additionally capped at ctxCheckSlots slots, so the
// shard stops within a bounded amount of work whether the population is
// wide (many terminals, few slots each) or deep (one terminal, many
// slots). A background context takes the check-free path and the
// stretch cap never engages.
func runShardCols(ctx context.Context, r shardRun) (shardResult, error) {
	cfg, slots := r.cfg, r.slots
	n, terms, rngs, err := newShardNetwork(cfg, slots, r.lo, r.hi, r.startD, r.loc)
	if err != nil {
		return shardResult{}, err
	}
	_, isHex := r.loc.(hexLocator)
	// Resume restores the struct mirrors (and RNG columns) first, so
	// newColsState seeds the hot columns from the checkpointed state; the
	// scheduler/preSweep/threshold-accounting columns are then overlaid
	// from the checkpoint directly.
	start := int64(0)
	if r.resume != nil {
		if err := restoreShardCore(n, terms, rngs, r.resume); err != nil {
			return shardResult{}, err
		}
		start = r.resume.Slot
	}
	c := newColsState(terms, rngs, r.startD)

	every := cfg.Telemetry.SnapshotEvery
	prog := cfg.Telemetry.Progress
	dyn := cfg.Dynamic
	kind, param := n.upd.kind, n.upd.param
	done := ctx.Done()
	width := int64(r.hi - r.lo)
	var frames []telemetry.ShardFrame
	// subEvents counts dispatched sub-slot events across all terminals —
	// the engine schedules no sweep events, so this is directly the
	// reference engine's Processed() minus its slot sweeps.
	var subEvents uint64
	if r.resume != nil {
		frames = restoreFrames(r.resume.Frames)
		subEvents = r.resume.SubEvents
		bind := ackBind(n, terms)
		for i := range terms {
			sc := &r.resume.Scheds[i]
			c.sched[i].Restore(des.Time(sc.Now), sc.Seq, sc.Ran, sc.Pending, bind)
			c.preSweep[i] = r.resume.PreSweep[i]
			c.curD[i] = int32(r.resume.CurD[i])
			c.runLen[i] = r.resume.RunLen[i]
		}
	}

	for cur := start; cur < slots; {
		next := slots
		if every > 0 {
			if b := (cur/every + 1) * every; b < next {
				next = b
			}
		}
		if r.every > 0 {
			if b := (cur/r.every + 1) * r.every; b < next {
				next = b
			}
		}
		last := next == slots
		for first := 0; first < len(terms); first += colsCohortTerminals {
			endT := first + colsCohortTerminals
			if endT > len(terms) {
				endT = len(terms)
			}
			for i := first; i < endT; i++ {
				t := &terms[i]
				sched := &c.sched[i]
				n.sched = sched
				for s := cur; s < next; {
					if done != nil {
						select {
						case <-done:
							return shardResult{}, ctx.Err()
						default:
						}
					}
					if sched.Pending() > 0 || (dyn && s > 0 && s%cfg.ReoptimizeEvery == 0) {
						// Slow slot: run the reference two-phase event
						// path on the struct mirror. The mirror must be
						// current before any queued event dispatches
						// (retransmissions read t.pos), and the columns
						// are refreshed after the sweep.
						c.syncTerminal(t, i)
						base := des.Time(s) * SlotTicks
						if sched.Pending() > 0 {
							subEvents += sched.RunBefore(base, c.preSweep[i])
						}
						sched.AdvanceTo(base)
						if int32(t.threshold) == c.curD[i] {
							c.runLen[i]++
						} else {
							c.flushThreshold(i, n.metrics)
							c.curD[i] = int32(t.threshold)
							c.runLen[i] = 1
						}
						n.sweepSlot(t, s)
						if dyn && s > 0 && s%cfg.ReoptimizeEvery == 0 {
							n.reoptimize(t)
						}
						c.preSweep[i] = sched.SeqMark()
						if sched.Pending() > 0 {
							subEvents += sched.RunBefore(base+SlotTicks, c.preSweep[i])
						}
						c.syncColumns(t, i)
						s++
						continue
					}
					// Pure stretch: load the terminal's hot state into
					// registers and consume event gaps until the stretch
					// ends or the scheduler is armed.
					stop := next
					if dyn {
						if b := (s/cfg.ReoptimizeEvery + 1) * cfg.ReoptimizeEvery; b < stop {
							stop = b
						}
					}
					if done != nil && stop-s > ctxCheckSlots {
						stop = s + ctxCheckSlots
					}
					start := s
					lr := rngs[i]
					pos, ctr := c.pos[i], c.ctr[i]
					thr := int(c.thr[i])
					callT, moveT := c.callT[i], c.moveT[i]
					for s < stop {
						limit := stop - s
						deadlined := false
						if kind == schemeTimer {
							// The gap sampler may not run past the timer's
							// refresh deadline: that slot takes its call and
							// move draws individually and then fires the
							// update, so the budget stops just short of it.
							// An overdue deadline (a dropped call left
							// lastContact stale) clamps to a zero budget —
							// EventGap consumes no draws on a zero limit —
							// and the slot is processed manually below.
							if dl := t.lastContact + param; dl < stop {
								if dl < s {
									dl = s
								}
								limit = dl - s
								deadlined = true
							}
						}
						gap, called, hit := lr.EventGap(callT, moveT, limit)
						if dyn {
							// The estimator's float sequence must match
							// the scalar per-slot updates exactly, so
							// event-free slots are replayed one by one —
							// no closed-form decay.
							for k := int64(0); k < gap; k++ {
								t.est.observe(false, false)
							}
						}
						s += gap
						if !hit {
							if !deadlined {
								break
							}
							// s reached the refresh deadline without an
							// event. Replay the slot's draws in sweepSlot
							// order — call, then movement (with its
							// direction draw), neither of which can trigger
							// in timer mode — then fire the timer update.
							if lr.BernoulliT(callT) {
								rngs[i] = lr
								t.pos, t.center, t.threshold = pos, ctr, thr
								subEvents += n.pageInline(t, des.Time(s)*SlotTicks)
								ctr = t.center
								lr = rngs[i]
								s++
								continue
							}
							if lr.BernoulliT(moveT) {
								if isHex {
									h := grid.Hex{Q: int(pos.Q), R: int(pos.R)}.Neighbor(lr.Intn(6))
									pos = wire.Cell{Q: int32(h.Q), R: int32(h.R)}
								} else {
									pos = wire.Cell{Q: int32(grid.Line(pos.Q).Neighbor(lr.Intn(2)))}
								}
							}
							rngs[i] = lr
							sched.AdvanceTo(des.Time(s) * SlotTicks)
							ctr = pos
							t.pos, t.center, t.threshold = pos, ctr, thr
							n.sendUpdate(t)
							lr = rngs[i]
							s++
							c.preSweep[i] = sched.SeqMark()
							if sched.Pending() > 0 {
								subEvents += sched.RunBefore(des.Time(s)*SlotTicks, c.preSweep[i])
								lr = rngs[i]
								pos, ctr = t.pos, t.center
								break
							}
							continue
						}
						if called {
							// Inline paging exchange through the cold
							// path: publish registers, run, reload (the
							// chain draws losses from the shared RNG
							// column and may re-center the terminal).
							rngs[i] = lr
							t.pos, t.center, t.threshold = pos, ctr, thr
							subEvents += n.pageInline(t, des.Time(s)*SlotTicks)
							ctr = t.center
							lr = rngs[i]
							if dyn {
								t.est.observe(false, true)
							}
							s++
							continue
						}
						// Move event: direction draw, then the scheme's
						// trigger decision, on concrete grid math (an
						// interface call here would heap-escape lr). The
						// timer scheme never triggers on movement; its
						// deadline handling sits above.
						trigger := false
						if isHex {
							h := grid.Hex{Q: int(pos.Q), R: int(pos.R)}.Neighbor(lr.Intn(6))
							pos = wire.Cell{Q: int32(h.Q), R: int32(h.R)}
							if kind == schemeDistance {
								trigger = h.Dist(grid.Hex{Q: int(ctr.Q), R: int(ctr.R)}) > thr
							}
						} else {
							l := grid.Line(pos.Q).Neighbor(lr.Intn(2))
							pos = wire.Cell{Q: int32(l)}
							if kind == schemeDistance {
								trigger = l.Dist(grid.Line(ctr.Q)) > thr
							}
						}
						if kind == schemeMovement {
							t.moves++
							trigger = t.moves >= param
						}
						touched := false
						if trigger {
							rngs[i] = lr
							sched.AdvanceTo(des.Time(s) * SlotTicks)
							ctr = pos
							t.pos, t.center, t.threshold = pos, ctr, thr
							n.sendUpdate(t)
							lr = rngs[i]
							touched = true
						}
						if dyn {
							t.est.observe(true, false)
						}
						s++
						if touched {
							c.preSweep[i] = sched.SeqMark()
							if sched.Pending() > 0 {
								subEvents += sched.RunBefore(des.Time(s)*SlotTicks, c.preSweep[i])
								// Dispatched retransmissions consume RNG
								// draws and may re-center; reload before
								// falling back to the per-slot path.
								lr = rngs[i]
								pos, ctr = t.pos, t.center
								break
							}
						}
					}
					rngs[i] = lr
					c.pos[i], c.ctr[i] = pos, ctr
					// The whole stretch ran at one threshold (only
					// reoptimize moves it, never inside a stretch).
					if int32(thr) == c.curD[i] {
						c.runLen[i] += s - start
					} else {
						c.flushThreshold(i, n.metrics)
						c.curD[i] = int32(thr)
						c.runLen[i] = s - start
					}
				}
				if last {
					// Late timers resolve against the current mirror,
					// exactly as the reference engine's final drain.
					c.syncTerminal(t, i)
					subEvents += sched.Drain()
					c.syncColumns(t, i)
					c.flushThreshold(i, n.metrics)
				}
			}
			if endT < len(terms) {
				// Cohort-granular progress: slot stays at the batch
				// floor while completed work and events advance, so
				// pollers watch a run move through a deep batch instead
				// of seeing it jump at the boundary.
				prog.Set(r.shard, cur, cur*width+int64(endT)*(next-cur), uint64(cur)+subEvents)
			}
		}
		cur = next
		prog.Set(r.shard, cur, cur*width, uint64(cur)+subEvents)
		if every > 0 && (cur%every == 0 || last) {
			// Telemetry-cadence boundaries and the final run boundary get
			// frames (checkpoint-only boundaries do not — the reference
			// engine captures no frame there); the final frame covers the
			// whole run including the drained late timers.
			frames = append(frames, n.snapshot(cur, subEvents))
		}
		if r.every > 0 && cur%r.every == 0 && !last {
			// The struct mirrors may be stale (columns are authoritative
			// between cold calls); refresh them so the capture sees the
			// current positions, centers and thresholds.
			for i := range terms {
				c.syncTerminal(&terms[i], i)
			}
			sc := captureShardCore(n, terms, rngs, cur, r.lo, r.hi, frames)
			sc.SubEvents = subEvents
			sc.Scheds = make([]SchedCheckpoint, len(terms))
			sc.PreSweep = make([]uint64, len(terms))
			sc.CurD = make([]int64, len(terms))
			sc.RunLen = make([]int64, len(terms))
			for i := range terms {
				sc.Scheds[i] = schedCheckpoint(&c.sched[i])
				sc.PreSweep[i] = c.preSweep[i]
				sc.CurD[i] = int64(c.curD[i])
				sc.RunLen[i] = c.runLen[i]
			}
			r.emit(sc)
		}
	}

	n.metrics.Events = subEvents
	return shardResult{metrics: finishShard(n, terms, slots), frames: frames}, nil
}
