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
	hlr     []hlrRecord
	metrics *Metrics
	parts   map[int]partInfo
	// lastD/lastPart memoize the most recent partitionFor answer: paging
	// plans are keyed by threshold, and runs overwhelmingly page at one
	// (or very few) thresholds, so the map is rarely consulted twice.
	lastD    int
	lastPart partInfo
	first    uint32 // global id of the shard's first terminal
	callSeq  uint32
	scratch  []byte // reused encode buffer for byte accounting
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
func (n *network) hlrAt(id uint32) *hlrRecord {
	return &n.hlr[id-n.first]
}

// partitionFor returns (building and caching on demand) the paging plan for
// threshold d. Probability-aware schemes receive the stationary
// distribution of the network's configured average parameters — the best
// information the fixed network has.
func (n *network) partitionFor(d int) partInfo {
	if d == n.lastD {
		return n.lastPart
	}
	if pi, ok := n.parts[d]; ok {
		n.lastD, n.lastPart = d, pi
		return pi
	}
	rings := n.cfg.Core.Model.Grid().RingSizes(d)
	var probs []float64
	if _, needs := n.scheme().(paging.OptimalDP); needs {
		var err error
		probs, err = chain.Stationary(n.cfg.Core.Model, n.cfg.Core.Params, d)
		if err != nil {
			// Validated config cannot fail here; treat as a bug.
			panic(fmt.Sprintf("sim: stationary distribution: %v", err))
		}
	}
	part := n.scheme().Partition(rings, probs, n.cfg.Core.MaxDelay)
	ringSub := make([]int, d+1)
	for j, s := range part {
		for i := s.FirstRing; i <= s.LastRing; i++ {
			ringSub[i] = j
		}
	}
	pi := partInfo{part: part, ringSubarea: ringSub}
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

// markSynced closes a divergence episode, recording its duration on the
// shard's recovery-latency moments (in ticks) and the fixed-bucket
// histogram (in slots).
func (n *network) markSynced(t *terminal) {
	n.markSyncedAt(t, n.sched.Now())
}

// markSyncedAt is markSynced at an explicit virtual time, for callers that
// run ahead of the scheduler clock (pageInline, the columnar engine's
// inline paging exchange): the recovery latency has sub-slot resolution,
// so the tick the episode closes at must be the one the event-driven
// exchange would have reached.
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

// transmitUpdate performs one uplink transmission of t's current location:
// the terminal pays for the transmission (cost and bytes) unconditionally;
// the message reaches the HLR unless the injected signalling loss drops
// it, and is applied unless a scheduled outage window is open. Stale
// sequence numbers are discarded on delivery.
func (n *network) transmitUpdate(t *terminal) {
	u := t.makeUpdate()
	// Sending an update (re)centers the terminal's own view on the
	// reported cell, whatever becomes of the message in transit — and
	// counts as contact: the movement counter and the timer scheme's
	// reference slot reset in every scheme (the extra writes take no
	// draws, so distance results are untouched).
	t.center = t.pos
	t.moves = 0
	t.lastContact = int64(n.sched.Now() / SlotTicks)
	n.scratch = u.Encode(n.scratch[:0])
	n.win.Updates++
	n.term(u.Terminal).Updates++
	n.metrics.UpdateBytes += int64(len(n.scratch))

	applied := false
	if n.cfg.Faults.UpdateLoss > 0 && t.rng.Bernoulli(n.cfg.Faults.UpdateLoss) {
		n.win.LostUpdates++
	} else if n.inOutage() {
		// Delivered, but the HLR is down for maintenance: the
		// registration is not applied and no ack is produced.
		n.metrics.OutageDeferred++
	} else {
		dec, err := wire.DecodeUpdate(n.scratch)
		if err != nil {
			panic(fmt.Sprintf("sim: self-encoded update failed to decode: %v", err))
		}
		if rec := n.hlrAt(dec.Terminal); dec.Seq > rec.seq {
			*rec = hlrRecord{
				center:    dec.Cell,
				seq:       dec.Seq,
				threshold: int(dec.Threshold),
			}
		}
		applied = true
		if n.cfg.Faults.UpdateRetries > 0 {
			// The HLR acknowledges the registration; the downlink ack
			// rides the paging channel and is modeled as reliable.
			ack := wire.Ack{Terminal: dec.Terminal, Seq: dec.Seq}
			n.scratch = ack.Encode(n.scratch[:0])
			n.metrics.Acks++
			n.metrics.AckBytes += int64(len(n.scratch))
			t.ackedSeq = dec.Seq
		}
	}
	if applied {
		n.markSynced(t)
	} else {
		n.markDesynced(t)
	}
	if n.cfg.Faults.UpdateRetries > 0 && t.ackedSeq < u.Seq {
		// The retransmission timer is the only event species that can be
		// pending when a checkpoint is taken at a slot boundary (paging
		// chains complete within the arrival slot — validate enforces it),
		// so it carries a tag from which Resume rebuilds the closure:
		// shard-local terminal index and the update's sequence number.
		seq := u.Seq
		n.sched.AfterTag(n.cfg.Faults.ackBackoff(t.retries), ackTag(t.id-n.first, seq),
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

// register stores a terminal's initial location without charging it as a
// mechanism update (it models subscription-time provisioning).
func (n *network) register(u wire.Update) {
	*n.hlrAt(u.Terminal) = hlrRecord{center: u.Cell, seq: u.Seq, threshold: int(u.Threshold)}
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

// replyDelivered transmits t's paging reply (the terminal pays the bytes
// unconditionally) and, unless the injected uplink loss drops it, delivers
// it to the HLR, which re-centers the record on the replied cell.
func (n *network) replyDelivered(t *terminal, call uint32) bool {
	reply := wire.Reply{Terminal: t.id, Cell: t.pos, Call: call}
	n.scratch = reply.Encode(n.scratch[:0])
	n.metrics.ReplyBytes += int64(len(n.scratch))
	if n.cfg.Faults.ReplyLoss > 0 && t.rng.Bernoulli(n.cfg.Faults.ReplyLoss) {
		n.metrics.LostReplies++
		return false
	}
	dec, err := wire.DecodeReply(n.scratch)
	if err != nil {
		panic(fmt.Sprintf("sim: self-encoded reply failed to decode: %v", err))
	}
	n.hlrAt(t.id).center = dec.Cell
	return true
}

// pageSuccess finishes a resolved call after cycles polling cycles: the
// terminal heard its poll and its reply got through, so both sides
// re-center and any desync episode ends. The delay lands on the shard's
// exact integer moments, which merge in any order.
func (n *network) pageSuccess(t *terminal, cycles int) {
	n.pageSuccessAt(t, cycles, n.sched.Now())
}

// pageSuccessAt is pageSuccess at an explicit virtual time (see
// markSyncedAt).
func (n *network) pageSuccessAt(t *terminal, cycles int, now des.Time) {
	// An answered page is contact too: both sides re-center, so the
	// movement and timer schemes restart from here.
	t.center = t.pos
	t.moves = 0
	t.lastContact = int64(now / SlotTicks)
	n.win.Delay.Add(int64(cycles))
	n.metrics.DelayHist.Add(float64(cycles))
	n.markSyncedAt(t, now)
}

// diskCells counts the cells within the given ring radius of a center.
func (n *network) diskCells(radius int) int {
	kind := n.cfg.Core.Model.Grid()
	cells := 0
	for r := 0; r <= radius; r++ {
		cells += kind.RingSize(r)
	}
	return cells
}

// page handles an incoming call for terminal t: poll the residing area
// subarea by subarea, one polling cycle each, until the terminal replies.
// Cycle j's polls go out at tick 2j−1 of the exchange and its reply (or
// timeout) resolves at tick 2j, all within the arrival slot.
//
// With a perfect signalling plane the nominal plan always answers within
// the delay bound: the distance-update invariant keeps the terminal inside
// its residing area and every poll/reply round-trip succeeds. Injected
// faults break both halves, so a plan that comes up empty escalates to
// recovery rounds (see the round closure): round r blanket-polls every
// cell within radius threshold+r of the registered center, re-covering
// in-area terminals whose poll or reply was lost and expanding ring by
// ring toward terminals that drifted out after lost updates. A call still
// unanswered after FaultPlan.PageRetries rounds is dropped and counted in
// Metrics.DroppedCalls — never a NotFound panic.
func (n *network) page(t *terminal) {
	rec := *n.hlrAt(t.id)
	n.callSeq++
	call := n.callSeq
	info := n.partitionFor(rec.threshold)
	ring := n.loc.dist(t.pos, rec.center)
	n.win.Calls++
	n.term(t.id).Calls++

	// target is the subarea whose polls reach the terminal, or −1 when
	// the registered record cannot contain it (drift after lost or
	// outage-deferred updates): the nominal plan then polls empty and the
	// recovery rounds take over.
	target := -1
	if ring < len(info.ringSubarea) {
		target = info.ringSubarea[ring]
	} else {
		n.metrics.FallbackCalls++
	}

	// round r > 0 is one recovery paging round; see the method comment.
	var round func(r int)
	round = func(r int) {
		if r > n.cfg.Faults.PageRetries {
			n.win.DroppedCalls++
			return
		}
		n.win.RePolls++
		radius := rec.threshold + r
		cells := n.diskCells(radius)
		cyc := uint8(255)
		if c := len(info.part) + r; c <= 255 {
			cyc = uint8(c)
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.win.PolledCells += int64(cells)
		n.term(t.id).PolledCells += int64(cells)
		n.metrics.PollBytes += int64(cells * len(n.scratch))
		if ring <= radius && n.pollHeard(t) {
			n.sched.After(1, func() {
				if n.replyDelivered(t, call) {
					n.pageSuccess(t, len(info.part)+r)
					return
				}
				n.sched.After(1, func() { round(r + 1) })
			})
			return
		}
		n.sched.After(2, func() { round(r + 1) })
	}

	var cycle func(j int)
	cycle = func(j int) {
		if j >= len(info.part) {
			// Exhausted all subareas without a reply: recovery rounds.
			round(1)
			return
		}
		sub := info.part[j]
		// Broadcast one poll per cell of the subarea. The polls differ
		// only in their target cell; encode one representative message
		// and account bytes for the full broadcast.
		cyc := uint8(j + 1)
		if j+1 > 255 {
			cyc = 255
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.win.PolledCells += int64(sub.Cells)
		n.term(t.id).PolledCells += int64(sub.Cells)
		n.metrics.PollBytes += int64(sub.Cells * len(n.scratch))
		if j == target && n.pollHeard(t) {
			// The terminal hears the poll in its cell and replies one
			// tick later; if the reply survives the uplink, the HLR
			// re-centers on the replied cell and the call resolves.
			n.sched.After(1, func() {
				if n.replyDelivered(t, call) {
					n.pageSuccess(t, j+1)
					return
				}
				n.sched.After(1, func() { cycle(j + 1) })
			})
			return
		}
		// Timeout after one polling cycle, then poll the next subarea.
		n.sched.After(2, func() { cycle(j + 1) })
	}
	n.sched.After(1, func() { cycle(0) })
}

// pageInline is page run to completion inline, without scheduling a
// single event: the polling-cycle chain is a per-terminal linear sequence
// of strictly later ticks, so with an empty terminal queue (the caller's
// precondition) executing it synchronously is indistinguishable from the
// event-driven version — the loss draws come in identical chain order,
// pageSuccessAt is stamped with the tick the resolution event would have
// carried, and the return value is exactly the number of events the
// reference engine's chain would have processed, so Metrics.Events still
// matches. Structurally this is page() with each sched.After(τ, step)
// replaced by falling through to step's body and counting the event.
func (n *network) pageInline(t *terminal, base des.Time) uint64 {
	rec := *n.hlrAt(t.id)
	n.callSeq++
	call := n.callSeq
	info := n.partitionFor(rec.threshold)
	ring := n.loc.dist(t.pos, rec.center)
	n.win.Calls++
	n.term(t.id).Calls++

	// See page(): the subarea whose polls reach the terminal, or −1 when
	// the registered record cannot contain it.
	target := -1
	if ring < len(info.ringSubarea) {
		target = info.ringSubarea[ring]
	} else {
		n.metrics.FallbackCalls++
	}

	events := uint64(1) // the kickoff event that carries the first cycle
	for j := 0; j < len(info.part); j++ {
		sub := info.part[j]
		cyc := uint8(j + 1)
		if j+1 > 255 {
			cyc = 255
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.win.PolledCells += int64(sub.Cells)
		n.term(t.id).PolledCells += int64(sub.Cells)
		n.metrics.PollBytes += int64(sub.Cells * len(n.scratch))
		if j == target && n.pollHeard(t) {
			events++ // the reply-resolution event one tick later
			if n.replyDelivered(t, call) {
				// Cycle j runs at base+1+2j; its reply resolves at +1.
				n.pageSuccessAt(t, j+1, base+des.Time(2+2*j))
				return events
			}
		}
		events++ // the event carrying the next cycle (or the first round)
	}
	for r := 1; ; r++ {
		if r > n.cfg.Faults.PageRetries {
			n.win.DroppedCalls++
			return events
		}
		n.win.RePolls++
		radius := rec.threshold + r
		cells := n.diskCells(radius)
		cyc := uint8(255)
		if c := len(info.part) + r; c <= 255 {
			cyc = uint8(c)
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.win.PolledCells += int64(cells)
		n.term(t.id).PolledCells += int64(cells)
		n.metrics.PollBytes += int64(cells * len(n.scratch))
		if ring <= radius && n.pollHeard(t) {
			events++ // the reply-resolution event one tick later
			if n.replyDelivered(t, call) {
				// Round r runs at base+1+2·len(part)+2(r−1); reply at +1.
				n.pageSuccessAt(t, len(info.part)+r, base+des.Time(2*len(info.part)+2*r))
				return events
			}
		}
		events++ // the event carrying the next round
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
// queued events are in play. Note Bernoulli always consumes a draw, even
// at probability zero, so the sequence is the same whatever the
// outcomes; the scheme dispatch sits strictly after the draws and takes
// none of its own. Threshold-usage accounting stays with the callers:
// the reference engine counts every terminal-slot as it sweeps, the
// columnar engine batches runs of unchanged thresholds.
//
// slot is the current slot index: the reference engine passes its slot
// counter, the columnar engine the stretch position. It is only read by
// the timer scheme (the scheduler clock is not necessarily advanced on
// pure slots).
func (n *network) sweepSlot(t *terminal, slot int64) {
	called := t.rng.Bernoulli(t.params.C)
	moved := false
	if called {
		n.page(t)
	} else if t.rng.Bernoulli(t.moveProb) {
		moved = true
		t.pos = n.loc.move(t.pos, t.rng)
		switch n.upd.kind {
		case schemeDistance:
			if n.loc.dist(t.pos, t.center) > t.threshold {
				t.center = t.pos
				n.sendUpdate(t)
			}
		case schemeMovement:
			t.moves++
			if t.moves >= n.upd.param {
				t.center = t.pos
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
		t.center = t.pos
		n.sendUpdate(t)
	}
	if n.cfg.Dynamic {
		t.est.observe(moved, called)
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
	if d == t.threshold {
		return
	}
	t.threshold = d
	// Re-register at the current position: the new residing area must be
	// centered somewhere the network knows.
	t.center = t.pos
	n.sendUpdate(t)
}
