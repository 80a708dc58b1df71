package sim

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/paging"
	"repro/internal/wire"
)

// partInfo caches the paging plan for one threshold: the partition and the
// per-ring subarea index.
type partInfo struct {
	part        paging.Partition
	ringSubarea []int
}

// network is the fixed-network side: the HLR location registry, the paging
// controller, and the signalling accounting. One network instance serves
// one shard of the terminal population (the whole population in a
// single-engine run).
type network struct {
	cfg   Config
	loc   locator
	sched *des.Scheduler
	// upd is the compiled update scheme (resolveScheme of cfg.Scheme):
	// the trigger the sweeps branch on. Not to be confused with scheme(),
	// the paging partitioner.
	upd schemePlan
	// hlr holds the shard's location registry, indexed by id − first:
	// terminal ids are dense within a shard, so the registry is a flat
	// slice rather than a map. Every slot is provisioned at construction
	// time (newShardNetwork), so lookups never miss.
	hlr []HLRRecord
	// pos, ctr and thr are each terminal's cell and its own view of its
	// center and threshold d; callT and moveT are its call and movement
	// draws' integer Bernoulli thresholds (stats.BernoulliThreshold of c
	// and q/(1−c), fixed for the run). Indexed by id − first like hlr,
	// they are the only home of these values: both engines' sweeps and
	// exchanges read and write them here, and the columnar engine walks
	// them in memory order. ctr matches the HLR record's center unless an
	// update was lost in transit or deferred by an outage (Config.Faults).
	pos, ctr     []wire.Cell
	thr          []int32
	callT, moveT []uint64
	metrics      *Metrics
	parts        map[int]*partInfo
	// lastD/lastPart memoize the most recent partitionFor answer: paging
	// plans are keyed by threshold, and runs overwhelmingly page at one
	// (or very few) thresholds, so the map is rarely consulted twice.
	lastD    int
	lastPart *partInfo
	first    uint32 // global id of the shard's first terminal
	// win receives the frame fields (frameCounts) in place of metrics;
	// the engines fold it into metrics before anything reads them. It
	// points at acc unless the columnar engine counts telemetry
	// intervals apart, when it points at the interval of the slot the
	// network code is running for.
	win *frameCounts
	acc frameCounts
}

func (n *network) term(id uint32) *TerminalStats {
	return &n.metrics.PerTerminal[id-n.first]
}

// hlrAt returns the registry record for terminal id. Ids outside the
// shard are a bug and fail loudly on the slice bounds check.
func (n *network) hlrAt(id uint32) *HLRRecord {
	return &n.hlr[id-n.first]
}

// partitionFor returns (building and caching on demand) the paging plan for
// threshold d. The scheme receives the stationary distribution of the
// network's configured average parameters — the best information the
// fixed network has; schemes that do not read it ignore it. Every paging
// exchange asks for its plan, so the cache hands out a pointer rather
// than a copy of the plan.
func (n *network) partitionFor(d int) *partInfo {
	if d == n.lastD {
		return n.lastPart
	}
	if pi, ok := n.parts[d]; ok {
		n.lastD, n.lastPart = d, pi
		return pi
	}
	probs, err := chain.Stationary(n.cfg.Core.Model, n.cfg.Core.Params, d)
	if err != nil {
		// Validated config cannot fail here; treat as a bug.
		panic(fmt.Sprintf("sim: stationary distribution: %v", err))
	}
	rings := n.cfg.Core.Model.Grid().RingSizes(d)
	part := n.scheme().Partition(rings, probs, n.cfg.Core.MaxDelay)
	pi := &partInfo{part: part, ringSubarea: part.RingGroup()}
	n.parts[d] = pi
	n.lastD, n.lastPart = d, pi
	return pi
}

func (n *network) scheme() paging.Scheme {
	if n.cfg.Core.Scheme == nil {
		return paging.SDF{}
	}
	return n.cfg.Core.Scheme
}

// inOutage reports whether the HLR is inside a scheduled outage window at
// the current virtual time.
func (n *network) inOutage() bool {
	if len(n.cfg.Faults.Outages) == 0 {
		return false
	}
	return n.cfg.Faults.covers(int64(n.sched.Now() / SlotTicks))
}

// markDesynced stamps the onset of an HLR divergence: the terminal's own
// view of its record no longer matches what the network holds.
func (n *network) markDesynced(t *terminal) {
	if !t.desynced {
		t.desynced = true
		t.desyncedAt = n.sched.Now()
	}
}

// markSyncedAt closes a divergence episode at virtual time now, recording
// its duration on the shard's recovery-latency moments (in ticks) and the
// fixed-bucket histogram (in slots). The latency has sub-slot resolution,
// so an exchange run ahead of the scheduler clock (pageInline) passes the
// tick the event-driven exchange would have reached.
func (n *network) markSyncedAt(t *terminal, now des.Time) {
	if t.desynced {
		t.desynced = false
		ticks := now - t.desyncedAt
		n.win.Recovery.Add(int64(ticks))
		n.metrics.RecoveryHist.Add(float64(ticks) / SlotTicks)
	}
}

// sendUpdate starts a fresh location-update exchange for t. With
// FaultPlan.UpdateRetries > 0 the exchange is acked: a transmission that
// draws no wire.Ack is retransmitted after a timeout with exponential
// backoff until the retry budget runs out, leaving the terminal desynced
// until the next page re-centers it. With a zero budget updates stay the
// paper's fire-and-forget datagrams.
func (n *network) sendUpdate(t *terminal) {
	t.retries = 0
	n.transmitUpdate(t)
}

// register applies t's latest location update to its registry record:
// its current cell and threshold under sequence number t.seq. A stale
// sequence number is dropped. The threshold fits the update's 2-byte
// field (wire.UpdateSize), because validate bounds MaxThreshold far
// below it.
func (n *network) register(t *terminal) {
	i := t.id - n.first
	if rec := &n.hlr[i]; t.seq > rec.Seq {
		*rec = HLRRecord{Center: n.pos[i], Seq: t.seq, Threshold: int(n.thr[i])}
	}
}

// transmitUpdate performs one uplink transmission of t's current location:
// the terminal pays for the transmission (cost and wire.UpdateSize bytes)
// unconditionally; the message reaches the HLR unless the injected
// signalling loss drops it, and is applied unless a scheduled outage
// window is open. Stale sequence numbers are discarded on delivery.
func (n *network) transmitUpdate(t *terminal) {
	i := t.id - n.first
	t.seq++
	// Sending an update (re)centers the terminal's own view on the
	// reported cell, whatever becomes of the message in transit — and
	// counts as contact: the movement counter and the timer scheme's
	// reference slot reset in every scheme (the extra writes take no
	// draws, so distance results are untouched).
	n.ctr[i] = n.pos[i]
	t.moves = 0
	t.lastContact = int64(n.sched.Now() / SlotTicks)
	n.win.Updates++
	n.term(t.id).Updates++
	n.metrics.UpdateBytes += wire.UpdateSize

	applied := false
	if n.cfg.Faults.UpdateLoss > 0 && t.rng.Bernoulli(n.cfg.Faults.UpdateLoss) {
		n.win.LostUpdates++
	} else if n.inOutage() {
		// Delivered, but the HLR is down for maintenance: the
		// registration is not applied and no ack is produced.
		n.metrics.OutageDeferred++
	} else {
		n.register(t)
		applied = true
		if n.cfg.Faults.UpdateRetries > 0 {
			// The HLR acknowledges the registration; the downlink ack
			// rides the paging channel and is modeled as reliable.
			n.metrics.Acks++
			n.metrics.AckBytes += wire.AckSize
			t.ackedSeq = t.seq
		}
	}
	if applied {
		n.markSyncedAt(t, n.sched.Now())
	} else {
		n.markDesynced(t)
	}
	if n.cfg.Faults.UpdateRetries > 0 && t.ackedSeq < t.seq {
		// The retransmission timer is the only event species that can be
		// pending when a checkpoint is taken at a slot boundary (paging
		// chains complete within the arrival slot — validate enforces it),
		// so it carries a tag from which Resume rebuilds the closure:
		// shard-local terminal index and the update's sequence number.
		seq := t.seq
		n.sched.AfterTag(n.cfg.Faults.ackBackoff(t.retries), ackTag(i, seq),
			func() { n.ackTimeout(t, seq) })
	}
}

// ackTimeout fires when the retransmission timer for the update carrying
// seq expires: if the exchange is still pending (not acked, not superseded
// by a newer update) and budget remains, the terminal retransmits its
// current location with the next backoff step.
func (n *network) ackTimeout(t *terminal, seq uint32) {
	if t.ackedSeq >= seq || t.seq != seq {
		return // acked, or superseded by a newer exchange
	}
	if t.retries >= n.cfg.Faults.UpdateRetries {
		return // budget exhausted: desynced until the next page re-centers
	}
	t.retries++
	n.win.Retransmissions++
	n.transmitUpdate(t)
}

// pollHeard reports whether a poll broadcast covering t's current cell
// actually reaches it, drawing the injected downlink loss from the
// terminal's own stream.
func (n *network) pollHeard(t *terminal) bool {
	if n.cfg.Faults.PollLoss > 0 && t.rng.Bernoulli(n.cfg.Faults.PollLoss) {
		n.metrics.LostPolls++
		return false
	}
	return true
}

// replyDelivered transmits t's paging reply (the terminal pays
// wire.ReplySize bytes unconditionally) and, unless the injected uplink
// loss drops it, delivers it to the HLR, which re-centers the record on
// the replied cell.
func (n *network) replyDelivered(t *terminal) bool {
	n.metrics.ReplyBytes += wire.ReplySize
	if n.cfg.Faults.ReplyLoss > 0 && t.rng.Bernoulli(n.cfg.Faults.ReplyLoss) {
		n.metrics.LostReplies++
		return false
	}
	i := t.id - n.first
	n.hlr[i].Center = n.pos[i]
	return true
}

// exchange is one paging exchange's fixed state, read by every stage:
// the registered threshold the network pages from (copied at the start,
// as the exchange's view of the record), the plan for that threshold,
// the terminal's true distance from the registered center (ring) and the
// plan subarea holding it (target), or −1 when the record cannot contain
// the terminal (drift after lost or outage-deferred updates): the plan
// then polls empty and the recovery stages take over.
type exchange struct {
	t         *terminal
	threshold int
	part      paging.Partition
	ring      int
	target    int
}

// openExchange starts a paging exchange for an incoming call to t in x.
// It fills x in place: the drivers keep x in their own frame (pageInline
// on its stack), and returning it by value would copy it on every call.
func (n *network) openExchange(x *exchange, t *terminal) {
	rec := n.hlrAt(t.id)
	info := n.partitionFor(rec.Threshold)
	x.t, x.threshold, x.part = t, rec.Threshold, info.part
	x.ring = n.loc.dist(n.pos[t.id-n.first], rec.Center)
	x.target = -1
	n.win.Calls++
	n.term(t.id).Calls++
	if x.ring < len(info.ringSubarea) {
		x.target = info.ringSubarea[x.ring]
	} else {
		n.metrics.FallbackCalls++
	}
}

// poll broadcasts stage k of x: the plan's subarea k for k < len(part),
// else recovery round r = k − len(part) + 1, which blanket-polls every
// cell within radius threshold+r of the registered center and counts a
// re-poll. Each polled cell costs wire.PollSize bytes. heard reports
// that the poll reached the terminal (the loss draw is taken only when
// the stage covers its cell); dropped that k is past the
// FaultPlan.PageRetries budget, so nothing was polled and the call is
// dropped.
func (n *network) poll(x *exchange, k int) (heard, dropped bool) {
	cells, reach := 0, false
	if k < len(x.part) {
		cells, reach = x.part[k].Cells, k == x.target
	} else {
		r := k - len(x.part) + 1
		if r > n.cfg.Faults.PageRetries {
			n.win.DroppedCalls++
			return false, true
		}
		n.win.RePolls++
		radius := x.threshold + r
		cells, reach = n.cfg.Core.Model.Grid().DiskSize(radius), x.ring <= radius
	}
	n.win.PolledCells += int64(cells)
	n.term(x.t.id).PolledCells += int64(cells)
	n.metrics.PollBytes += int64(cells * wire.PollSize)
	return reach && n.pollHeard(x.t), false
}

// resolve delivers the terminal's reply to stage k at virtual time now
// and reports whether the call resolved. On delivery both sides
// re-center — an answered page is contact, so the movement and timer
// schemes restart from here — any desync episode ends, and the k+1
// polling cycles land on the shard's exact integer delay moments, which
// merge in any order.
func (n *network) resolve(x *exchange, k int, now des.Time) bool {
	t := x.t
	if !n.replyDelivered(t) {
		return false
	}
	i := t.id - n.first
	n.ctr[i] = n.pos[i]
	t.moves = 0
	t.lastContact = int64(now / SlotTicks)
	n.win.Delay.Add(int64(k + 1))
	n.metrics.DelayHist.Add(float64(k + 1))
	n.markSyncedAt(t, now)
	return true
}

// page handles an incoming call for terminal t as scheduled events: one
// stage per polling cycle until the terminal replies. Stage k polls at
// tick 2k+1 of the exchange and its reply (or timeout) resolves at tick
// 2k+2, all within the arrival slot.
//
// With a perfect signalling plane the nominal plan always answers within
// the delay bound: the distance-update invariant keeps the terminal inside
// its residing area and every poll/reply round-trip succeeds. Injected
// faults break both halves, so a plan that comes up empty escalates to
// recovery stages (see poll), which re-cover in-area terminals whose poll
// or reply was lost and expand ring by ring toward terminals that drifted
// out after lost updates. A call still unanswered after
// FaultPlan.PageRetries rounds is dropped and counted in
// Metrics.DroppedCalls — never a NotFound panic.
func (n *network) page(t *terminal) {
	var x exchange
	n.openExchange(&x, t)
	var stage func(k int)
	stage = func(k int) {
		heard, dropped := n.poll(&x, k)
		if dropped {
			return
		}
		if heard {
			// The terminal replies one tick later; a lost reply moves on
			// to the next stage one tick after that.
			n.sched.After(1, func() {
				if !n.resolve(&x, k, n.sched.Now()) {
					n.sched.After(1, func() { stage(k + 1) })
				}
			})
			return
		}
		// Timeout after one polling cycle, then the next stage.
		n.sched.After(2, func() { stage(k + 1) })
	}
	n.sched.After(1, func() { stage(0) })
}

// pageInline is page run to completion inline, without scheduling a
// single event: the stages are a per-terminal linear sequence of strictly
// later ticks, so with an empty terminal queue (the caller's
// precondition) running them in a loop is indistinguishable from the
// event-driven version — the loss draws come in identical stage order,
// resolve is stamped with the tick the reply event would have carried,
// and the return value is exactly the number of events page's chain would
// have processed (the kickoff, each heard poll's reply, each stage moved
// past), so Metrics.Events still matches.
func (n *network) pageInline(t *terminal, base des.Time) uint64 {
	var x exchange
	n.openExchange(&x, t)
	events := uint64(1) // the kickoff event that carries stage 0
	for k := 0; ; k++ {
		heard, dropped := n.poll(&x, k)
		if dropped {
			return events
		}
		if heard {
			events++ // the reply event one tick later
			if n.resolve(&x, k, base+des.Time(2*k+2)) {
				return events
			}
		}
		events++ // the event carrying stage k+1
	}
}

// sweepSlot runs slot's worth of terminal activity for t: the call
// arrival draw (paging on a hit), otherwise the movement draw (the
// update scheme deciding whether the move triggers an update), then the
// timer scheme's deadline check, then the dynamic scheme's estimator
// update. The draw order — call, then movement, then the in-move
// direction — is the per-terminal RNG contract the columnar engine's
// bit-identity rests on: the reference engine runs this method every
// slot, the columnar engine replicates the same draws on its pure
// stretches (runShardCols) and falls back to this method whenever
// queued events are in play. Both draws compare against the integer
// thresholds of the callT and moveT columns (stats.BernoulliT, exact
// against Bernoulli), and each always consumes a draw, even at
// probability zero, so the sequence is the same whatever the outcomes;
// the scheme dispatch sits strictly after the draws and takes none of
// its own. Threshold-usage accounting stays with the callers:
// the reference engine counts every terminal-slot as it sweeps, the
// columnar engine batches runs of unchanged thresholds.
//
// slot is the current slot index: the reference engine passes its slot
// counter, the columnar engine the stretch position. It is only read by
// the timer scheme (the scheduler clock is not necessarily advanced on
// pure slots).
func (n *network) sweepSlot(t *terminal, slot int64) {
	i := t.id - n.first
	called := t.rng.BernoulliT(n.callT[i])
	moved := false
	if called {
		n.page(t)
	} else if t.rng.BernoulliT(n.moveT[i]) {
		moved = true
		n.pos[i] = n.loc.move(n.pos[i], t.rng)
		switch n.upd.kind {
		case schemeDistance:
			if n.loc.dist(n.pos[i], n.ctr[i]) > int(n.thr[i]) {
				n.sendUpdate(t)
			}
		case schemeMovement:
			t.moves++
			if t.moves >= n.upd.param {
				n.sendUpdate(t)
			}
			// schemeTimer: movement never triggers an update.
		}
	}
	if n.upd.kind == schemeTimer && !called && slot-t.lastContact >= n.upd.param {
		// The refresh period elapsed without contact: report the current
		// position. A slot whose call was answered already re-centered;
		// one whose call was dropped stays overdue and refreshes on the
		// next call-free slot.
		n.sendUpdate(t)
	}
	if n.cfg.Dynamic {
		t.est.observe(n.cfg.EWMAAlpha, moved, called)
	}
}

// reoptimize recomputes terminal t's threshold from its online estimates
// using the near-optimal pipeline (with the paper's 0→1 correction) and, if
// it changed, sends a location update carrying the new threshold so the
// HLR's paging plan stays consistent.
func (n *network) reoptimize(t *terminal) {
	est := t.est.params()
	if est.Q == 0 && est.C == 0 {
		return // no signal yet
	}
	cfg := n.cfg.Core
	cfg.Params = est
	res, err := core.NearOptimal(cfg, n.cfg.MaxThreshold, true)
	if err != nil {
		return // keep the current threshold on estimation pathologies
	}
	d := res.Best.Threshold
	if i := t.id - n.first; d != int(n.thr[i]) {
		// Re-register at the current position (sendUpdate re-centers):
		// the new residing area must be centered somewhere the network
		// knows.
		n.thr[i] = int32(d)
		n.sendUpdate(t)
	}
}
