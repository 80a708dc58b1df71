package sim

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/telemetry"
)

// The PCNCKPT3 checkpoint and PCNPART5 partial payloads, in the codec of
// codec.go. A layout's kinds string and its wire function's column
// numbers must agree; the column numbers run from 0 without gaps.

// termLayout: cell coordinates, thresholds, sequence numbers, retry
// state and the movement/timer trigger state as uvarints; the EWMA
// estimates and the four RNG words as 8-byte words.
var termLayout = layout[TermCheckpoint]{"vvvvvvvvvvwwwwwwvv", func(rows []TermCheckpoint, c *cols) {
	for i := range rows {
		t, j := &rows[i], uint8(i)
		int32Col(c, 0, j, &t.Pos.Q)
		int32Col(c, 1, j, &t.Pos.R)
		int32Col(c, 2, j, &t.Center.Q)
		int32Col(c, 3, j, &t.Center.R)
		intCol(c, 4, j, &t.Threshold)
		uint32Col(c, 5, j, &t.Seq)
		uint32Col(c, 6, j, &t.AckedSeq)
		intCol(c, 7, j, &t.Retries)
		boolCol(c, 8, j, &t.Desynced)
		uint64Col(c, 9, j, &t.DesyncedAt)
		float64Col(c, 10, j, &t.EstQ)
		float64Col(c, 11, j, &t.EstC)
		uint64Col(c, 12, j, &t.RNG[0])
		uint64Col(c, 13, j, &t.RNG[1])
		uint64Col(c, 14, j, &t.RNG[2])
		uint64Col(c, 15, j, &t.RNG[3])
		int64Col(c, 16, j, &t.Moves)
		int64Col(c, 17, j, &t.LastContact)
	}
}}

var hlrLayout = layout[HLRRecord]{"vvvv", func(rows []HLRRecord, c *cols) {
	for i := range rows {
		h, j := &rows[i], uint8(i)
		int32Col(c, 0, j, &h.Center.Q)
		int32Col(c, 1, j, &h.Center.R)
		uint32Col(c, 2, j, &h.Seq)
		intCol(c, 3, j, &h.Threshold)
	}
}}

// termStatsLayout carries a terminal's three counters; its id, cost and
// final threshold are not in the table.
var termStatsLayout = layout[TerminalStats]{"vvv", func(rows []TerminalStats, c *cols) {
	for i := range rows {
		s, j := &rows[i], uint8(i)
		int64Col(c, 0, j, &s.Updates)
		int64Col(c, 1, j, &s.Calls)
		int64Col(c, 2, j, &s.PolledCells)
	}
}}

// finalThresholdLayout carries a terminal's final threshold, the
// partial's second per-terminal table.
var finalThresholdLayout = layout[TerminalStats]{"v", func(rows []TerminalStats, c *cols) {
	for i := range rows {
		intCol(c, 0, uint8(i), &rows[i].FinalThreshold)
	}
}}

// thresholdCount is one Metrics.ThresholdSlots entry as the wire
// carries it: the table is sorted by threshold without repeats, so
// equal maps encode to equal bytes.
type thresholdCount struct {
	d     int
	slots int64
}

var thresholdLayout = layout[thresholdCount]{"vv", func(rows []thresholdCount, c *cols) {
	for i := range rows {
		t, j := &rows[i], uint8(i)
		intCol(c, 0, j, &t.d)
		int64Col(c, 1, j, &t.slots)
	}
}}

var pendingLayout = layout[des.PendingEvent]{"vvv", func(rows []des.PendingEvent, c *cols) {
	for i := range rows {
		p, j := &rows[i], uint8(i)
		uint64Col(c, 0, j, (*uint64)(&p.At))
		uint64Col(c, 1, j, &p.Seq)
		uint64Col(c, 2, j, &p.Tag)
	}
}}

// Layouts of the scalar slices.
var (
	uint64Layout = layout[uint64]{"v", func(rows []uint64, c *cols) {
		for i := range rows {
			uint64Col(c, 0, uint8(i), &rows[i])
		}
	}}
	int64Layout = layout[int64]{"v", func(rows []int64, c *cols) {
		for i := range rows {
			int64Col(c, 0, uint8(i), &rows[i])
		}
	}}
	// int32Layout writes an int32 slice to the bytes int64Layout writes
	// for the same values widened, which is how it decodes.
	int32Layout = layout[int32]{"v", func(rows []int32, c *cols) {
		for i := range rows {
			int32Col(c, 0, uint8(i), &rows[i])
		}
	}}
)

// putScheds writes schedulers: every pending event in one flat table,
// then a table of the schedulers' fields and pending-event counts.
func putScheds(e *encoder, scheds []SchedCheckpoint) {
	var flat []des.PendingEvent
	for i := range scheds {
		flat = append(flat, scheds[i].Pending...)
	}
	putTable(e, flat, pendingLayout)
	putTable(e, scheds, schedLayout(nil))
}

// getScheds reads schedulers putScheds wrote. Their pending events share
// one array, each scheduler's slice capped at its own events.
func getScheds(d *decoder) []SchedCheckpoint {
	flat := getTable(d, "pending event", pendingLayout)
	scheds := getTable(d, "scheduler", schedLayout(&flat))
	if d.err == nil && len(flat) > 0 {
		d.fail("%d pending events claimed by no scheduler", len(flat))
	}
	return scheds
}

// schedKinds is the scheduler table's column kinds: the clock, the
// stamp counter, the dispatched count and the pending-event count.
const schedKinds = "vvvv"

// schedLayout is the scheduler layout. Decoding, each scheduler takes
// its count of events off the front of *pending.
func schedLayout(pending *[]des.PendingEvent) layout[SchedCheckpoint] {
	return layout[SchedCheckpoint]{schedKinds, func(rows []SchedCheckpoint, c *cols) {
		for i := range rows {
			s, j := &rows[i], uint8(i)
			uint64Col(c, 0, j, &s.Now)
			uint64Col(c, 1, j, &s.Seq)
			uint64Col(c, 2, j, &s.Ran)
			n := uint64(len(s.Pending))
			uint64Col(c, 3, j, &n)
			if !c.decoding || n == 0 {
				continue
			}
			if n > uint64(len(*pending)) {
				c.bad = true
				return
			}
			s.Pending = (*pending)[:n:n]
			*pending = (*pending)[n:]
		}
	}}
}

// putHist writes an optional histogram.
func putHist(e *encoder, h *telemetry.Hist) {
	e.flag(h != nil)
	if h == nil {
		return
	}
	e.word(math.Float64bits(h.Width))
	putTable(e, h.Counts, int64Layout)
	e.varint(h.Overflow)
	e.varint(h.N)
	e.word(math.Float64bits(h.Min))
	e.word(math.Float64bits(h.Max))
}

func getHist(d *decoder) *telemetry.Hist {
	if !d.flag() {
		return nil
	}
	h := &telemetry.Hist{Width: math.Float64frombits(d.word())}
	h.Counts = getTable(d, "histogram bucket", int64Layout)
	h.Overflow = d.varint()
	h.N = d.varint()
	h.Min = math.Float64frombits(d.word())
	h.Max = math.Float64frombits(d.word())
	return h
}

// putMetrics writes a shard's measurement state: the counters, the
// moments, the histograms, the threshold-usage counts and each
// terminal's counters. Events, the run shape, the ids and the costs are
// not written here.
func putMetrics(e *encoder, m *Metrics) {
	for _, c := range m.counters() {
		e.varint(*c)
	}
	e.moments(&m.Delay)
	e.moments(&m.Recovery)
	putHist(e, m.DelayHist)
	putHist(e, m.RecoveryHist)
	counts := make([]thresholdCount, 0, len(m.ThresholdSlots))
	for d, n := range m.ThresholdSlots {
		counts = append(counts, thresholdCount{d, n})
	}
	slices.SortFunc(counts, func(a, b thresholdCount) int { return cmp.Compare(a.d, b.d) })
	putTable(e, counts, thresholdLayout)
	putTable(e, m.PerTerminal, termStatsLayout)
}

// getMetrics reads what putMetrics wrote into m. The threshold-usage
// counts must be sorted by threshold without repeats; an empty table
// decodes as a nil map.
func getMetrics(d *decoder, m *Metrics) {
	for _, c := range m.counters() {
		*c = d.varint()
	}
	d.moments(&m.Delay)
	d.moments(&m.Recovery)
	m.DelayHist = getHist(d)
	m.RecoveryHist = getHist(d)
	counts := getTable(d, "threshold count", thresholdLayout)
	if len(counts) > 0 {
		m.ThresholdSlots = make(map[int]int64, len(counts))
	}
	for i, tc := range counts {
		if i > 0 && tc.d <= counts[i-1].d {
			d.fail("threshold counts not sorted by threshold")
		}
		m.ThresholdSlots[tc.d] = tc.slots
	}
	m.PerTerminal = getTable(d, "terminal stats", termStatsLayout)
}

func putFrame(e *encoder, f *telemetry.ShardFrame) {
	e.varint(f.Slot)
	for _, c := range [...]int64{f.Updates, f.LostUpdates, f.Retransmissions,
		f.Calls, f.PolledCells, f.DroppedCalls, f.RePolls} {
		e.varint(c)
	}
	e.uvarint(f.Events)
	e.moments(&f.Delay)
	e.moments(&f.Recovery)
}

func getFrame(d *decoder, f *telemetry.ShardFrame) {
	f.Slot = d.varint()
	for _, c := range [...]*int64{&f.Updates, &f.LostUpdates, &f.Retransmissions,
		&f.Calls, &f.PolledCells, &f.DroppedCalls, &f.RePolls} {
		*c = d.varint()
	}
	f.Events = d.uvarint()
	d.moments(&f.Delay)
	d.moments(&f.Recovery)
}

var minFrameSize = sectionSize(putFrame, &telemetry.ShardFrame{})

func putFrames(e *encoder, frames []telemetry.ShardFrame) {
	e.count(len(frames))
	for i := range frames {
		putFrame(e, &frames[i])
	}
}

func getFrames(d *decoder) []telemetry.ShardFrame {
	n := d.count("telemetry frame", minFrameSize)
	if n == 0 || d.err != nil {
		return nil
	}
	frames := make([]telemetry.ShardFrame, n)
	for i := range frames {
		getFrame(d, &frames[i])
	}
	return frames
}

// putCheckpointHead writes the head of a Checkpoint's PCNCKPT3 payload:
// the run shape and the shard count. One self-contained section per
// shard follows (FrameCheckpoint): putLiveShard's as a shard encoded it
// at the boundary, or putShardCheckpoint's for the field form.
func putCheckpointHead(e *encoder, cp *Checkpoint) {
	e.varint(cp.Slot)
	e.varint(cp.Slots)
	e.varint(int64(cp.Shards))
	e.varint(int64(cp.StartD))
	e.word(cp.Seed)
	e.varint(int64(cp.Engine))
	e.str(cp.Scheme)
	e.varint(cp.SchemeParam)
	e.count(len(cp.Shard) + len(cp.sections))
}

func getCheckpoint(d *decoder, cp *Checkpoint) {
	cp.Slot = d.varint()
	cp.Slots = d.varint()
	cp.Shards = d.int()
	cp.StartD = d.int()
	cp.Seed = d.word()
	cp.Engine = Engine(d.int())
	cp.Scheme = d.str("scheme")
	cp.SchemeParam = d.varint()
	n := d.count("shard", minShardCheckpointSize)
	if n == 0 || d.err != nil {
		return
	}
	cp.Shard = make([]ShardCheckpoint, n)
	for i := range cp.Shard {
		getShardCheckpoint(d, &cp.Shard[i])
	}
}

// putShardCheckpoint writes a shard's section from its field form. The
// call slot after the terminal range holds callSlot of the metrics; it
// keeps the place of a call counter the format once carried, which
// always equalled it, so no checkpoint byte moved when the counter went.
func putShardCheckpoint(e *encoder, sc *ShardCheckpoint) {
	e.varint(sc.Slot)
	e.varint(int64(sc.Lo))
	e.varint(int64(sc.Hi))
	e.uvarint(callSlot(&sc.Metrics))
	e.uvarint(sc.Metrics.Events)
	putTable(e, sc.Terms, termLayout)
	putTable(e, sc.HLR, hlrLayout)
	putMetrics(e, &sc.Metrics)
	putFrames(e, sc.Snapshots)
	putScheds(e, sc.Scheds)
	putTable(e, sc.PreSweep, uint64Layout)
	putTable(e, sc.CurD, int64Layout)
	putTable(e, sc.RunLen, int64Layout)
	e.flag(sc.DES != nil)
	if sc.DES != nil {
		putScheds(e, []SchedCheckpoint{sc.DES.Sched})
		e.uvarint(sc.DES.SlotEventSeq)
	}
}

func getShardCheckpoint(d *decoder, sc *ShardCheckpoint) {
	sc.Slot = d.varint()
	sc.Lo = d.int()
	sc.Hi = d.int()
	calls := d.uvarint()
	sc.Metrics.Events = d.uvarint()
	sc.Terms = getTable(d, "terminal", termLayout)
	sc.HLR = getTable(d, "registry", hlrLayout)
	getMetrics(d, &sc.Metrics)
	if want := callSlot(&sc.Metrics); calls != want {
		// The slot is derived, so a section whose slot disagrees with its
		// metrics would not encode back to its own bytes.
		d.fail("call slot %d disagrees with %d calls (want %d)", calls, sc.Metrics.Calls, want)
	}
	sc.Snapshots = getFrames(d)
	sc.Scheds = getScheds(d)
	sc.PreSweep = getTable(d, "pre-sweep mark", uint64Layout)
	sc.CurD = getTable(d, "threshold in use", int64Layout)
	sc.RunLen = getTable(d, "run length", int64Layout)
	if d.flag() {
		scheds := getScheds(d)
		if len(scheds) != 1 {
			d.fail("reference engine with %d schedulers", len(scheds))
			return
		}
		sc.DES = &DESCheckpoint{Sched: scheds[0], SlotEventSeq: d.uvarint()}
	}
}

var minShardCheckpointSize = sectionSize(putShardCheckpoint, &ShardCheckpoint{})

// callSlot is the value of a shard section's call slot: the shard's
// calls modulo 2^32.
func callSlot(m *Metrics) uint64 {
	return uint64(uint32(m.Calls))
}

// putLiveShard writes a shard's section from its live state: the bytes
// putShardCheckpoint writes for a ShardCheckpoint of the same state,
// field for field, without building one. The registry and the metrics
// are the network's own HLRRecord and Metrics, written by the same
// writers; only the terminal table, whose fields are split between the
// terminal structs, the network's columns and the generators, and the
// schedulers have a live writer. The terminal table's wire function
// reads the live fields straight into the columns, with termLayout's
// column numbers and column helpers, except that an int32 field goes
// through int32Col, which writes the bytes intCol writes for the value
// widened.
func putLiveShard(e *encoder, s *liveShard) {
	n := s.n
	e.varint(s.slot)
	e.varint(int64(s.lo))
	e.varint(int64(s.hi))
	e.uvarint(callSlot(n.metrics))
	e.uvarint(n.metrics.Events)
	terms, rngs := s.terms, s.rngs
	e.table(len(terms), termLayout.kinds, func(lo, hi int, c *cols) {
		for i := lo; i < hi; i++ {
			t, j := &terms[i], uint8(i-lo)
			int32Col(c, 0, j, &n.pos[i].Q)
			int32Col(c, 1, j, &n.pos[i].R)
			int32Col(c, 2, j, &n.ctr[i].Q)
			int32Col(c, 3, j, &n.ctr[i].R)
			int32Col(c, 4, j, &n.thr[i])
			uint32Col(c, 5, j, &t.seq)
			uint32Col(c, 6, j, &t.ackedSeq)
			intCol(c, 7, j, &t.retries)
			boolCol(c, 8, j, &t.desynced)
			uint64Col(c, 9, j, (*uint64)(&t.desyncedAt))
			float64Col(c, 10, j, &t.est.q)
			float64Col(c, 11, j, &t.est.c)
			rng := rngs[i].State()
			uint64Col(c, 12, j, &rng[0])
			uint64Col(c, 13, j, &rng[1])
			uint64Col(c, 14, j, &rng[2])
			uint64Col(c, 15, j, &rng[3])
			int64Col(c, 16, j, &t.moves)
			int64Col(c, 17, j, &t.lastContact)
		}
	})
	putTable(e, n.hlr, hlrLayout)
	putMetrics(e, n.metrics)
	putFrames(e, s.frames)
	if c := s.cols; c != nil {
		// The columnar engine: one scheduler per terminal.
		putLiveScheds(e, c.sched, &s.pending, 0)
		putTable(e, c.preSweep, uint64Layout)
		putTable(e, c.curD, int32Layout)
		putTable(e, c.runLen, int64Layout)
		e.flag(false)
		return
	}
	// The reference engine: the five per-terminal tables empty (pending
	// events, schedulers, pre-sweep marks, thresholds in use, run
	// lengths), then its one scheduler, whose running slot event
	// re-dispatches on resume.
	for range 5 {
		e.count(0)
	}
	e.flag(true)
	putLiveScheds(e, s.scheds, &s.pending, 1)
	e.uvarint(s.slotStamp)
}

// putLiveScheds writes scheds as putScheds writes their exports
// (des.Scheduler.Checkpoint), each Ran less the running events still
// being dispatched. Their pending events are gathered, scheduler by
// scheduler and each in (time, stamp) order, in *pending, a buffer the
// caller keeps across boundaries. The scheduler columns are uint64s,
// which travel as they are.
func putLiveScheds(e *encoder, scheds []des.Scheduler, pending *[]des.PendingEvent, running uint64) {
	p := (*pending)[:0]
	for i := range scheds {
		if scheds[i].Pending() > 0 {
			_, _, _, p = scheds[i].Checkpoint(p)
		}
	}
	*pending = p
	putTable(e, p, pendingLayout)
	e.table(len(scheds), schedKinds, func(lo, hi int, c *cols) {
		for i := lo; i < hi; i++ {
			s, j := &scheds[i], i-lo
			c.vals[0][j] = uint64(s.Now())
			c.vals[1][j] = s.SeqMark()
			c.vals[2][j] = s.Processed() - running
			c.vals[3][j] = uint64(s.Pending())
		}
	})
}

// putPartial writes a Partial's PCNPART5 payload.
func putPartial(e *encoder, p *Partial) {
	e.varint(p.Slots)
	e.varint(int64(p.Shards))
	e.word(p.Seed)
	e.varint(int64(p.Lo))
	e.varint(int64(p.Hi))
	e.count(len(p.Shard))
	for i := range p.Shard {
		putShardPartial(e, &p.Shard[i])
	}
}

func getPartial(d *decoder, p *Partial) {
	p.Slots = d.varint()
	p.Shards = d.int()
	p.Seed = d.word()
	p.Lo = d.int()
	p.Hi = d.int()
	n := d.count("shard", minShardPartialSize)
	if n == 0 || d.err != nil {
		return
	}
	p.Shard = make([]ShardPartial, n)
	for i := range p.Shard {
		getShardPartial(d, &p.Shard[i])
	}
}

func putShardPartial(e *encoder, sp *ShardPartial) {
	e.varint(int64(sp.Shard))
	e.varint(int64(sp.Lo))
	e.varint(int64(sp.Hi))
	e.uvarint(sp.Metrics.Events)
	putMetrics(e, &sp.Metrics)
	putTable(e, sp.Metrics.PerTerminal, finalThresholdLayout)
	putFrames(e, sp.Snapshots)
}

func getShardPartial(d *decoder, sp *ShardPartial) {
	sp.Shard = d.int()
	sp.Lo = d.int()
	sp.Hi = d.int()
	sp.Metrics.Events = d.uvarint()
	getMetrics(d, &sp.Metrics)
	getTableInto(d, "final threshold", finalThresholdLayout, sp.Metrics.PerTerminal)
	sp.Snapshots = getFrames(d)
}

var minShardPartialSize = sectionSize(putShardPartial, &ShardPartial{})
