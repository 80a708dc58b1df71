package sim

import (
	"context"
	"slices"

	"repro/internal/des"
	"repro/internal/grid"
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
// per-slot decision actually needs live in flat parallel slices, one
// cache-dense column each: position, center, threshold and the
// precomputed call/move thresholds in the network's columns, which
// both engines read and write and which hold those values nowhere
// else, the RNG state in newShardNetwork's flat slice, and the
// scheduler bookkeeping in colsState. The terminal structs hold only
// what event handling touches (update sequence and ack state, the
// desync stamp, the movement/timer trigger state and the estimator):
// scheduled closures (ack timers) capture *terminal, so those pointers
// must stay stable. The engine walks terminals in cohorts of
// colsCohortTerminals per slot batch, which bounds how stale the
// cohort-granular progress accounting can get and gives cancellation a
// natural check boundary.
//
// Inside a terminal's event-free stretch the engine stops asking "did
// anything happen this slot?" and instead asks "how many slots until
// something happens?" — stats.RNG.EventGap draws the gap to the next
// call-or-move event directly. The gap sampler is the per-slot threshold
// scan itself (one call draw, then one move draw, per slot, in sweepSlot
// order), so it consumes the identical stream positions as per-slot
// draws and bit-identity is preserved by construction. What it buys is
// one call per stretch instead of two Uint64 calls per slot: EventGap
// copies the four generator words into locals, steps them in registers
// for the whole scan and stores them back once. Around it, the stretch
// loop keeps the terminal's RNG copy, position and center in locals
// (lr, pos, ctr), publishes them to the columns only when it crosses
// into cold code and reloads what cold code may have moved (the RNG
// position and the center) when it returns. Cell geometry is inlined
// on a concrete grid.Hex/grid.Line branch rather than called through
// the locator interface: an interface call would force the local RNG
// copy to escape to the heap, and the hot loop must not allocate at any
// population size. `go build -gcflags=-m ./internal/stats` must report the step
// function inlined into EventGap, and `go build -gcflags=-m
// ./internal/sim` must not report lr moved to the heap.
//
// Slots are processed in batches bounded by the checkpoint cadence, the
// run end and colsBatchIntervals telemetry intervals; subdividing a
// batch is harmless (contract note 2, and each terminal's per-slot work
// is identical wherever the batch edges fall). The telemetry cadence
// does not cut batches: the network counts the frame fields into one
// accumulator per interval (frameWindows), and the batch end folds them
// in slot order, so each frame holds exactly the state the reference
// engine captures at its boundary (contract note 2 again: a frame is a
// set of exact integer sums over terminals). A checkpoint records each
// terminal's scheduler verbatim (clock, stamp counter, pending
// retransmission timers by tag) plus the preSweep mark and the batched
// threshold-usage accumulator — exactly the state the engine carries
// across a batch edge — encoded straight from the columns into the
// shard's section (putLiveShard), and resume re-enters the loop at the
// boundary.

// colsCohortTerminals is the cohort width: terminals are advanced
// through each slot batch in blocks of this many. The hot columns of a
// cohort (~100 B/terminal) fit comfortably in L2, and a cohort is the
// granularity of progress publication.
const colsCohortTerminals = 4096

// colsState holds the columnar engine's own per-terminal columns,
// indexed by terminal position within the shard; the terminal's
// position, center, threshold and draw thresholds are the network's
// columns, shared with the reference engine. sched is the terminal's
// own scheduler and preSweep the SeqMark where the reference engine's
// next slot-sweep event would sit in its insertion order (contract note
// 3): a queued event on a slot boundary runs before the boundary's
// sweep (and before any telemetry capture) exactly when its stamp is
// below the mark. curD and runLen batch the per-slot threshold-usage
// accounting: runLen consecutive slots spent at threshold curD, flushed
// to Metrics.ThresholdSlots only when the threshold changes or the run
// ends — the reference engine's per-terminal-slot map increment is the
// single largest cost it pays.
type colsState struct {
	sched    []des.Scheduler
	preSweep []uint64
	curD     []int32
	runLen   []int64
}

func newColsState(n, startD int) *colsState {
	c := &colsState{
		sched:    make([]des.Scheduler, n),
		preSweep: make([]uint64, n),
		curD:     make([]int32, n),
		runLen:   make([]int64, n),
	}
	for i := range c.curD {
		c.curD[i] = int32(startD)
	}
	return c
}

// flushThreshold credits terminal i's batched threshold-usage run.
// Flushes always carry runLen ≥ 1 once a slot has run, so the map never
// grows zero-valued keys the reference engine would not have.
func (c *colsState) flushThreshold(i int, m *Metrics) {
	if c.runLen[i] > 0 {
		m.ThresholdSlots[int(c.curD[i])] += c.runLen[i]
	}
}

// colsBatchIntervals caps the telemetry intervals one slot batch spans,
// so a fine cadence over a long run counts into a small reused buffer
// of per-interval accumulators.
const colsBatchIntervals = 256

// frameWindows counts a slot batch's frame fields per telemetry interval
// (frameCounts): interval k holds slots [k·every, (k+1)·every). The
// engine points the network at the interval of the slot it runs cold
// code for, so terminals may run through the whole batch one after the
// other, and fold adds the intervals to the shard's Metrics in slot
// order at the batch end, taking each frame exactly where the reference
// engine captures it. With frames off (every 0) there is no buffer and
// the network counts into its own accumulator.
type frameWindows struct {
	every int64
	first int64 // the interval wins[0] holds: the one of the batch's first slot
	wins  []frameCounts
}

func newFrameWindows(every, start, slots int64) frameWindows {
	if every == 0 {
		return frameWindows{}
	}
	wins := make([]frameCounts, min((slots-1)/every+1, colsBatchIntervals))
	for i := range wins {
		wins[i] = newFrameCounts()
	}
	return frameWindows{every: every, first: start / every, wins: wins}
}

// batchEnd is where a batch starting at cur ends unless a checkpoint
// comes first: the run end, or the start of the colsBatchIntervals-th
// interval from cur's.
func (w *frameWindows) batchEnd(cur, slots int64) int64 {
	if w.every > 0 {
		if k := cur/w.every + colsBatchIntervals; k <= (slots-1)/w.every {
			return k * w.every
		}
	}
	return slots
}

// point directs the network's frame counts at the interval holding slot
// and returns its accumulator.
func (w *frameWindows) point(n *network, slot int64) *frameCounts {
	if w.wins != nil {
		n.win = &w.wins[slot/w.every-w.first]
	}
	return n.win
}

// fold adds the batch ending at next to the shard's Metrics, interval by
// interval in slot order, and appends the frame of every interval that
// has ended — the final one, cut short at slots, once next is the run
// end. An interval a checkpoint cuts keeps counting into its emptied
// accumulator in the next batch.
func (w *frameWindows) fold(n *network, frames []telemetry.ShardFrame, next, slots int64) []telemetry.ShardFrame {
	if w.wins == nil {
		n.metrics.fold(&n.acc)
		return frames
	}
	last := (slots - 1) / w.every
	for k := w.first; k <= (next-1)/w.every; k++ {
		n.metrics.fold(&w.wins[k-w.first])
		end := slots
		if k < last {
			end = (k + 1) * w.every
		}
		if end <= next {
			frames = append(frames, n.snapshot(end, n.metrics.Events))
		}
	}
	w.first = next / w.every
	return frames
}

// runShardCols simulates terminals [lo, hi) with the columnar cohort
// engine, bit-identical to runShard for every configuration: same
// Metrics, same telemetry frame series, same histograms. Slot batches
// are bounded by the checkpoint cadence, the run end and the interval
// cap, frames are folded from per-interval counts at each batch end,
// and late timers drain after the last batch into the final interval;
// within a batch, terminals advance in cohorts, and within a terminal,
// event-free stretches collapse into EventGap scans, which keep the
// generator state in registers.
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
	c := newColsState(len(terms), r.startD)

	prog := cfg.Telemetry.Progress
	dyn, alpha := cfg.Dynamic, cfg.EWMAAlpha
	kind, param := n.upd.kind, n.upd.param
	done := ctx.Done()
	width := int64(r.hi - r.lo)
	var frames []telemetry.ShardFrame
	start := int64(0)
	if r.resume != nil {
		// Resume overlays the checkpoint on the fresh shard: terminals,
		// columns, registry and metrics, then the engine's own columns.
		restoreShardCore(n, terms, rngs, r.resume)
		start = r.resume.Slot
		frames = slices.Clone(r.resume.Snapshots)
		bind := ackBind(n, terms)
		for i := range terms {
			sc := &r.resume.Scheds[i]
			c.sched[i].Restore(des.Time(sc.Now), sc.Seq, sc.Ran, sc.Pending, bind)
			c.preSweep[i] = r.resume.PreSweep[i]
			c.curD[i] = int32(r.resume.CurD[i])
			c.runLen[i] = r.resume.RunLen[i]
		}
	}
	// The network counts the frame fields per telemetry interval (win).
	// The dispatched sub-slot events among them fold into
	// n.metrics.Events: the engine schedules no sweep events, so that is
	// directly the reference engine's Processed() minus its slot sweeps.
	win := newFrameWindows(cfg.Telemetry.SnapshotEvery, start, slots)

	// ls walks the shard's live state into its section at each
	// checkpoint boundary.
	ls := &liveShard{lo: r.lo, hi: r.hi, n: n, terms: terms, rngs: rngs, cols: c, scheds: c.sched}
	for cur := start; cur < slots; {
		next := win.batchEnd(cur, slots)
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
						// path, which reads and writes the columns
						// itself.
						base := des.Time(s) * SlotTicks
						if sched.Pending() > 0 {
							// Due before this slot's sweep: the window
							// ending at s. (At a batch's first slot
							// nothing is: the previous slot's closing
							// RunBefore ran to the same point.)
							win.point(n, max(s-1, cur)).Events += sched.RunBefore(base, c.preSweep[i])
						}
						sched.AdvanceTo(base)
						if n.thr[i] == c.curD[i] {
							c.runLen[i]++
						} else {
							c.flushThreshold(i, n.metrics)
							c.curD[i] = n.thr[i]
							c.runLen[i] = 1
						}
						win.point(n, s)
						n.sweepSlot(t, s)
						if dyn && s > 0 && s%cfg.ReoptimizeEvery == 0 {
							n.reoptimize(t)
						}
						c.preSweep[i] = sched.SeqMark()
						if sched.Pending() > 0 {
							n.win.Events += sched.RunBefore(base+SlotTicks, c.preSweep[i])
						}
						s++
						continue
					}
					// Pure stretch: copy the terminal's hot state into
					// locals and consume event gaps until the stretch
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
					pos, ctr := n.pos[i], n.ctr[i]
					thr := int(n.thr[i])
					callT, moveT := n.callT[i], n.moveT[i]
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
								t.est.observe(alpha, false, false)
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
								n.pos[i], n.ctr[i] = pos, ctr
								win.point(n, s).Events += n.pageInline(t, des.Time(s)*SlotTicks)
								ctr = n.ctr[i]
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
							n.pos[i] = pos
							win.point(n, s)
							n.sendUpdate(t)
							lr = rngs[i]
							s++
							c.preSweep[i] = sched.SeqMark()
							if sched.Pending() > 0 {
								// The window ending at s is the update's.
								n.win.Events += sched.RunBefore(des.Time(s)*SlotTicks, c.preSweep[i])
								lr = rngs[i]
								ctr = n.ctr[i]
								break
							}
							continue
						}
						if called {
							// Inline paging exchange through the cold
							// path: publish the locals, run, reload (the
							// chain draws losses from the shared RNG
							// column and may re-center the terminal).
							rngs[i] = lr
							n.pos[i], n.ctr[i] = pos, ctr
							win.point(n, s).Events += n.pageInline(t, des.Time(s)*SlotTicks)
							ctr = n.ctr[i]
							lr = rngs[i]
							if dyn {
								t.est.observe(alpha, false, true)
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
							n.pos[i] = pos
							win.point(n, s)
							n.sendUpdate(t)
							lr = rngs[i]
							touched = true
						}
						if dyn {
							t.est.observe(alpha, true, false)
						}
						s++
						if touched {
							c.preSweep[i] = sched.SeqMark()
							if sched.Pending() > 0 {
								n.win.Events += sched.RunBefore(des.Time(s)*SlotTicks, c.preSweep[i])
								// Dispatched retransmissions consume RNG
								// draws and may re-center; reload before
								// falling back to the per-slot path.
								lr = rngs[i]
								ctr = n.ctr[i]
								break
							}
						}
					}
					rngs[i] = lr
					n.pos[i], n.ctr[i] = pos, ctr
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
					// Late timers resolve exactly as in the reference
					// engine's final drain, and count in the final
					// interval, as its final frame covers them.
					win.point(n, slots-1).Events += sched.Drain()
					c.flushThreshold(i, n.metrics)
				}
			}
			if endT < len(terms) {
				// Cohort-granular progress: slot stays at the batch
				// floor while completed work advances, so pollers watch
				// a run move through a deep batch instead of seeing it
				// jump at the boundary. Events are folded in at batch
				// ends only.
				prog.Set(r.shard, cur, cur*width+int64(endT)*(next-cur), uint64(cur)+n.metrics.Events)
			}
		}
		frames = win.fold(n, frames, next, slots)
		cur = next
		prog.Set(r.shard, cur, cur*width, uint64(cur)+n.metrics.Events)
		if r.every > 0 && cur%r.every == 0 && !last {
			ls.slot, ls.frames = cur, frames
			r.emit(cur, ls.encode())
		}
	}

	return shardResult{metrics: finishShard(n, slots), frames: frames}, nil
}
