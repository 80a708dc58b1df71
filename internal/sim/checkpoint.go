package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Checkpoint is a complete, serializable snapshot of a sharded run at a
// slot boundary: enough state to Resume the run (RunShardedOpts) such
// that the final Metrics — every counter, accumulator, histogram,
// telemetry frame and the event count — are bit-identical to an
// uninterrupted run of the same configuration. That equivalence is the
// crash-recovery analogue of the engines' shard-count invariance, and is
// enforced by locman's checkpoint-equivalence property test.
//
// A checkpoint is taken with every shard aligned at the same completed
// slot count (Slot): the captured state reflects slots [0, Slot) and
// nothing of slot Slot itself. All fields are exported and concrete so
// the whole structure round-trips exactly through gob
// (EncodeCheckpoint/DecodeCheckpoint); float64 fields round-trip
// bit-for-bit, which the RNG positions, Welford accumulators and EWMA
// estimators require.
type Checkpoint struct {
	// Slot is the boundary the checkpoint was taken at: the number of
	// completed slots, 0 < Slot < Slots.
	Slot int64
	// Slots, Shards, StartD and Seed echo the run shape the checkpoint
	// belongs to; Resume validates them against the offered configuration
	// rather than silently producing a run that matches nothing.
	Slots  int64
	Shards int
	StartD int
	Seed   uint64
	// Engine records which engine took the checkpoint. The reference
	// engine (EngineDES) keeps one scheduler per shard, the columnar
	// engine one per terminal, so a checkpoint resumes only on the engine
	// that took it. Checkpoints of the retired fast engine carry the
	// columnar engine's tag and layout and resume on it unchanged.
	Engine Engine
	// Scheme and SchemeParam record the update scheme the run uses
	// (SchemeNames / UpdateScheme.Param); resuming under a different
	// trigger would replay a different mechanism entirely. Checkpoints
	// written before schemes existed decode with an empty Scheme, which
	// validateResume reads as "distance".
	Scheme      string
	SchemeParam int64
	// Shard holds the per-shard state, indexed by shard.
	Shard []ShardCheckpoint
}

// ShardCheckpoint is one shard's share of a Checkpoint.
type ShardCheckpoint struct {
	// Slot echoes Checkpoint.Slot; Lo and Hi are the shard's global
	// terminal range [Lo, Hi).
	Slot   int64
	Lo, Hi int
	// CallSeq is the shard network's call sequence counter.
	CallSeq uint32
	// Terms and HLR hold the per-terminal mobile-side and registry state,
	// indexed by terminal position within the shard.
	Terms []TermCheckpoint
	HLR   []HLRCheckpoint
	// Metrics is the shard's accumulated measurement state.
	Metrics MetricsCheckpoint
	// Frames is the telemetry snapshot series captured so far (including
	// a frame at this boundary when it lies on the telemetry cadence).
	Frames []FrameCheckpoint
	// SubEvents is the columnar engine's cumulative dispatched sub-slot
	// event count (unused by the reference engine, which derives its
	// count from the scheduler's Processed counter).
	SubEvents uint64
	// Scheds, PreSweep, CurD and RunLen are the columnar engine's
	// per-terminal scheduler state, reference-tie-break marks and batched
	// threshold-usage accounting; nil for the reference engine.
	Scheds   []SchedCheckpoint
	PreSweep []uint64
	CurD     []int64
	RunLen   []int64
	// DES is the reference engine's single shard scheduler; nil for the
	// columnar engine.
	DES *DESCheckpoint
}

// TermCheckpoint is one terminal's mobile-side state.
type TermCheckpoint struct {
	Pos, Center wire.Cell
	Threshold   int
	Seq         uint32
	AckedSeq    uint32
	Retries     int
	Desynced    bool
	DesyncedAt  uint64
	EstQ, EstC  float64
	RNG         [4]uint64
	// Moves and LastContact are the movement and timer schemes' trigger
	// state (terminal.moves / terminal.lastContact); zero in distance
	// runs and in checkpoints written before schemes existed.
	Moves       int64
	LastContact int64
}

// HLRCheckpoint is one terminal's registry record.
type HLRCheckpoint struct {
	Center    wire.Cell
	Seq       uint32
	Threshold int
}

// MetricsCheckpoint is the serializable mid-run state of a shard's
// Metrics: the counters, the latency histograms, the threshold-usage map
// and the per-terminal accumulators. Run-shape fields (Slots, Terminals,
// ids) and the derived aggregates are rebuilt on resume.
type MetricsCheckpoint struct {
	Updates, Calls, PolledCells         int64
	UpdateBytes, PollBytes, ReplyBytes  int64
	NotFound                            int64
	LostUpdates, LostPolls, LostReplies int64
	FallbackCalls, Retransmissions      int64
	Acks, AckBytes                      int64
	RePolls, DroppedCalls               int64
	OutageDeferred                      int64
	DelayHist, RecoveryHist             *telemetry.Hist
	ThresholdSlots                      map[int]int64
	PerTerminal                         []TermStatsCheckpoint
}

// TermStatsCheckpoint is one terminal's measurement state (the id is its
// index within the shard).
type TermStatsCheckpoint struct {
	Updates, Calls, PolledCells int64
	Delay, Recovery             stats.AccumulatorState
}

// FrameCheckpoint is one captured telemetry shard frame in serializable
// form.
type FrameCheckpoint struct {
	Slot            int64
	First           int
	Counters        telemetry.Counters
	Delay, Recovery []stats.AccumulatorState
}

// SchedCheckpoint is one scheduler's exported state (des.Checkpoint).
type SchedCheckpoint struct {
	Now     uint64
	Seq     uint64
	Ran     uint64
	Pending []des.PendingEvent
}

// DESCheckpoint is the reference engine's extra state: the shard
// scheduler (with the currently-running slot event excluded from Ran, as
// if it had not yet been dispatched) and that slot event's insertion
// stamp, so resume can re-create it losing exactly the ties it lost
// originally.
type DESCheckpoint struct {
	Sched        SchedCheckpoint
	SlotEventSeq uint64
}

// legacyColsTag is the Engine value checkpoints written before the fast
// engine was retired carry for the columnar engine (the fast engine held
// tag 0, EngineCols' tag today). DecodeCheckpoint folds it to EngineCols.
const legacyColsTag Engine = 2

// ackTag packs an ack-timer's identity — shard-local terminal index and
// update sequence number — into a des event tag. Update sequence numbers
// start at 2 (the initial registration consumes 1), so the tag is never
// zero.
func ackTag(idx uint32, seq uint32) uint64 {
	return uint64(idx)<<32 | uint64(seq)
}

// ackBind returns the tag-to-closure binder for restoring ack timers:
// the inverse of ackTag, closing over the shard's terminals.
func ackBind(n *network, terms []terminal) func(tag uint64) func() {
	return func(tag uint64) func() {
		i := int(tag >> 32)
		seq := uint32(tag)
		t := &terms[i]
		return func() { n.ackTimeout(t, seq) }
	}
}

// schedCheckpoint exports one scheduler's state.
func schedCheckpoint(s *des.Scheduler) SchedCheckpoint {
	now, seq, ran, pending := s.Checkpoint()
	return SchedCheckpoint{Now: uint64(now), Seq: seq, Ran: ran, Pending: pending}
}

// captureShardCore snapshots the state every engine shares: terminals,
// registry, metrics and the telemetry series. The caller adds its
// engine-class scheduler state. All reference types (slices, maps,
// histograms) are deep-copied: the live run keeps mutating them after
// the capture returns.
func captureShardCore(n *network, terms []terminal, rngs []stats.RNG,
	boundary int64, lo, hi int, frames []telemetry.ShardFrame) ShardCheckpoint {
	sc := ShardCheckpoint{
		Slot:    boundary,
		Lo:      lo,
		Hi:      hi,
		CallSeq: n.callSeq,
		Terms:   make([]TermCheckpoint, len(terms)),
		HLR:     make([]HLRCheckpoint, len(n.hlr)),
	}
	for i := range terms {
		t := &terms[i]
		sc.Terms[i] = TermCheckpoint{
			Pos:         t.pos,
			Center:      t.center,
			Threshold:   t.threshold,
			Seq:         t.seq,
			AckedSeq:    t.ackedSeq,
			Retries:     t.retries,
			Desynced:    t.desynced,
			DesyncedAt:  uint64(t.desyncedAt),
			EstQ:        t.est.q,
			EstC:        t.est.c,
			RNG:         rngs[i].State(),
			Moves:       t.moves,
			LastContact: t.lastContact,
		}
	}
	for i, rec := range n.hlr {
		sc.HLR[i] = HLRCheckpoint{Center: rec.center, Seq: rec.seq, Threshold: rec.threshold}
	}

	sc.Metrics = exportMetrics(n.metrics)
	sc.Frames = exportFrames(frames)
	return sc
}

// exportMetrics converts a shard's live Metrics into the serializable
// checkpoint form, deep-copying every reference type (the live run may
// keep mutating them after the export returns). Shared by checkpoint
// capture and the partial-result wire path (RunPartial).
func exportMetrics(m *Metrics) MetricsCheckpoint {
	mc := MetricsCheckpoint{
		Updates: m.Updates, Calls: m.Calls, PolledCells: m.PolledCells,
		UpdateBytes: m.UpdateBytes, PollBytes: m.PollBytes, ReplyBytes: m.ReplyBytes,
		NotFound:    m.NotFound,
		LostUpdates: m.LostUpdates, LostPolls: m.LostPolls, LostReplies: m.LostReplies,
		FallbackCalls: m.FallbackCalls, Retransmissions: m.Retransmissions,
		Acks: m.Acks, AckBytes: m.AckBytes,
		RePolls: m.RePolls, DroppedCalls: m.DroppedCalls,
		OutageDeferred: m.OutageDeferred,
		DelayHist:      m.DelayHist.Clone(),
		RecoveryHist:   m.RecoveryHist.Clone(),
		ThresholdSlots: make(map[int]int64, len(m.ThresholdSlots)),
		PerTerminal:    make([]TermStatsCheckpoint, len(m.PerTerminal)),
	}
	for d, c := range m.ThresholdSlots {
		mc.ThresholdSlots[d] = c
	}
	for i := range m.PerTerminal {
		ts := &m.PerTerminal[i]
		mc.PerTerminal[i] = TermStatsCheckpoint{
			Updates: ts.Updates, Calls: ts.Calls, PolledCells: ts.PolledCells,
			Delay: ts.Delay.State(), Recovery: ts.Recovery.State(),
		}
	}
	return mc
}

// exportFrames converts a telemetry shard-frame series into its
// serializable form (the inverse of restoreFrames).
func exportFrames(frames []telemetry.ShardFrame) []FrameCheckpoint {
	if len(frames) == 0 {
		return nil
	}
	out := make([]FrameCheckpoint, len(frames))
	for i := range frames {
		f := &frames[i]
		fc := FrameCheckpoint{
			Slot:     f.Slot,
			First:    f.First,
			Counters: f.Counters,
			Delay:    make([]stats.AccumulatorState, len(f.Delay)),
			Recovery: make([]stats.AccumulatorState, len(f.Recovery)),
		}
		for j := range f.Delay {
			fc.Delay[j] = f.Delay[j].State()
		}
		for j := range f.Recovery {
			fc.Recovery[j] = f.Recovery[j].State()
		}
		out[i] = fc
	}
	return out
}

// restoreShardCore overlays a shard checkpoint onto freshly-built shard
// state (newShardNetwork output): terminal structs, RNG positions,
// registry records, the network's counters and the metrics state. The
// engine restores its own scheduler state afterwards.
func restoreShardCore(n *network, terms []terminal, rngs []stats.RNG, sc *ShardCheckpoint) error {
	if len(sc.Terms) != len(terms) || len(sc.HLR) != len(n.hlr) ||
		len(sc.Metrics.PerTerminal) != len(terms) {
		return fmt.Errorf("sim: checkpoint shard holds %d terminals, run has %d", len(sc.Terms), len(terms))
	}
	for i := range terms {
		t := &terms[i]
		tc := &sc.Terms[i]
		t.pos = tc.Pos
		t.center = tc.Center
		t.threshold = tc.Threshold
		t.seq = tc.Seq
		t.ackedSeq = tc.AckedSeq
		t.retries = tc.Retries
		t.desynced = tc.Desynced
		t.desyncedAt = des.Time(tc.DesyncedAt)
		t.est.q, t.est.c = tc.EstQ, tc.EstC
		t.moves = tc.Moves
		t.lastContact = tc.LastContact
		rngs[i].SetState(tc.RNG)
	}
	for i := range n.hlr {
		hc := &sc.HLR[i]
		n.hlr[i] = hlrRecord{center: hc.Center, seq: hc.Seq, threshold: hc.Threshold}
	}
	n.callSeq = sc.CallSeq

	m := n.metrics
	mc := &sc.Metrics
	m.Updates, m.Calls, m.PolledCells = mc.Updates, mc.Calls, mc.PolledCells
	m.UpdateBytes, m.PollBytes, m.ReplyBytes = mc.UpdateBytes, mc.PollBytes, mc.ReplyBytes
	m.NotFound = mc.NotFound
	m.LostUpdates, m.LostPolls, m.LostReplies = mc.LostUpdates, mc.LostPolls, mc.LostReplies
	m.FallbackCalls, m.Retransmissions = mc.FallbackCalls, mc.Retransmissions
	m.Acks, m.AckBytes = mc.Acks, mc.AckBytes
	m.RePolls, m.DroppedCalls = mc.RePolls, mc.DroppedCalls
	m.OutageDeferred = mc.OutageDeferred
	m.DelayHist = mc.DelayHist.Clone()
	m.RecoveryHist = mc.RecoveryHist.Clone()
	m.ThresholdSlots = make(map[int]int64, len(mc.ThresholdSlots))
	for d, c := range mc.ThresholdSlots {
		m.ThresholdSlots[d] = c
	}
	for i := range mc.PerTerminal {
		tsc := &mc.PerTerminal[i]
		ts := &m.PerTerminal[i]
		ts.Updates, ts.Calls, ts.PolledCells = tsc.Updates, tsc.Calls, tsc.PolledCells
		ts.Delay.SetState(tsc.Delay)
		ts.Recovery.SetState(tsc.Recovery)
	}
	return nil
}

// restoreFrames rebuilds the engine's telemetry shard-frame series from
// its checkpointed form.
func restoreFrames(fcs []FrameCheckpoint) []telemetry.ShardFrame {
	if len(fcs) == 0 {
		return nil
	}
	frames := make([]telemetry.ShardFrame, len(fcs))
	for i := range fcs {
		fc := &fcs[i]
		f := telemetry.ShardFrame{
			Slot:     fc.Slot,
			First:    fc.First,
			Counters: fc.Counters,
			Delay:    make([]stats.Accumulator, len(fc.Delay)),
			Recovery: make([]stats.Accumulator, len(fc.Recovery)),
		}
		for j := range fc.Delay {
			f.Delay[j].SetState(fc.Delay[j])
		}
		for j := range fc.Recovery {
			f.Recovery[j].SetState(fc.Recovery[j])
		}
		frames[i] = f
	}
	return frames
}

// ckptMagic versions the checkpoint wire format.
var ckptMagic = []byte("PCNCKPT1")

// EncodeCheckpoint serializes a checkpoint to a self-checking byte
// format: a magic/version header, the gob payload, and a CRC32 trailer
// over the payload. Gob encodes float64 values by bit pattern, so
// decoding reproduces every RNG position, accumulator and estimator
// exactly.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(ckptMagic)
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	payload := buf.Bytes()[len(ckptMagic):]
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
	buf.Write(tail[:])
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses bytes produced by EncodeCheckpoint, rejecting
// unknown formats and corrupted payloads (checksum mismatch).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 || !bytes.Equal(data[:len(ckptMagic)], ckptMagic) {
		return nil, fmt.Errorf("sim: not a checkpoint (bad magic)")
	}
	payload := data[len(ckptMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("sim: checkpoint checksum mismatch")
	}
	cp := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(cp); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if cp.Engine == legacyColsTag {
		cp.Engine = EngineCols
	}
	return cp, nil
}

// ckptAggregator assembles per-shard captures into whole Checkpoints. A
// consistent checkpoint needs every shard at the same boundary, but the
// shards run freely — nothing blocks at a boundary — so captures for a
// boundary accumulate until the last shard delivers, at which point the
// assembled checkpoint is handed to the sink. Because each shard
// delivers its boundaries in order, boundary B's checkpoint always
// completes before B+every's, so the sink observes checkpoints in
// increasing slot order.
type ckptAggregator struct {
	mu      sync.Mutex
	shards  int
	shape   Checkpoint // Slot/Shard unset; the shared header fields
	pending map[int64][]ShardCheckpoint
	count   map[int64]int
	sink    func(*Checkpoint)
}

func newCkptAggregator(shape Checkpoint, shards int, sink func(*Checkpoint)) *ckptAggregator {
	return &ckptAggregator{
		shards:  shards,
		shape:   shape,
		pending: make(map[int64][]ShardCheckpoint),
		count:   make(map[int64]int),
		sink:    sink,
	}
}

// add delivers one shard's capture for a boundary; the completing
// delivery assembles the checkpoint and invokes the sink synchronously
// (on the delivering shard's goroutine).
func (a *ckptAggregator) add(shard int, sc ShardCheckpoint) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := sc.Slot
	if a.pending[b] == nil {
		a.pending[b] = make([]ShardCheckpoint, a.shards)
	}
	a.pending[b][shard] = sc
	a.count[b]++
	if a.count[b] < a.shards {
		return
	}
	cp := a.shape
	cp.Slot = b
	cp.Shard = a.pending[b]
	delete(a.pending, b)
	delete(a.count, b)
	a.sink(&cp)
}
