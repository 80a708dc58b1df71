package sim

import (
	"bytes"
	"io"
	"maps"
	"slices"
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
// nothing of slot Slot itself. The whole structure round-trips exactly
// through EncodeCheckpoint/DecodeCheckpoint; float64 fields round-trip
// bit-for-bit, which the RNG positions and EWMA estimators require.
//
// A checkpoint a run hands its sink (RunOpts.CheckpointSink) carries
// each shard's encoded section, written by the shard when it captured
// its state; EncodeCheckpoint and FrameCheckpoint reuse those bytes
// rather than encode the fields again. Such a checkpoint is therefore
// read-only: to encode an edited one, edit a decoded copy.
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
	// Snapshots is the telemetry series captured so far (including a
	// frame at this boundary when it lies on the telemetry cadence).
	Snapshots []telemetry.ShardFrame
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

	// encoded is the shard's PCNCKPT3 section (putShardCheckpoint) as
	// the shard encoded it at capture; nil for a checkpoint decoded or
	// built any other way, whose section is encoded when it is written.
	encoded []byte
}

// section returns the shard's PCNCKPT3 section: the bytes encoded at
// capture, or a fresh encoding.
func (sc *ShardCheckpoint) section() []byte {
	if sc.encoded != nil {
		return sc.encoded
	}
	return encodePayload(nil, 0, putShardCheckpoint, sc)
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
// Metrics: the counters, the delay/recovery moments, the latency
// histograms, the threshold-usage map and the per-terminal counters.
// Run-shape fields (Slots, Terminals, ids) and the derived aggregates are
// rebuilt on resume.
type MetricsCheckpoint = metricsState[map[int]int64]

// metricsState is a shard's serializable Metrics state with the
// threshold-usage counts in form T. Checkpoints keep the map they have
// always carried (MetricsCheckpoint), so PCNCKPT1/PCNCKPT2 files still
// decode through gob; partials carry a slice sorted by threshold
// (partialMetrics). On the wire both travel as that sorted slice.
type metricsState[T any] struct {
	Updates, Calls, PolledCells         int64
	UpdateBytes, PollBytes, ReplyBytes  int64
	NotFound                            int64
	LostUpdates, LostPolls, LostReplies int64
	FallbackCalls, Retransmissions      int64
	Acks, AckBytes                      int64
	RePolls, DroppedCalls               int64
	OutageDeferred                      int64
	Delay, Recovery                     stats.Moments
	DelayHist, RecoveryHist             *telemetry.Hist
	ThresholdSlots                      T
	PerTerminal                         []TermStatsCheckpoint
}

// TermStatsCheckpoint is one terminal's measurement state (the id is its
// index within the shard).
type TermStatsCheckpoint struct {
	Updates, Calls, PolledCells int64
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

	sc.Metrics = exportMetrics(n.metrics, maps.Clone[map[int]int64])
	sc.Snapshots = slices.Clone(frames)
	return sc
}

// exportMetrics converts a shard's live Metrics into the serializable
// form, deep-copying every reference type (the live run may keep
// mutating them after the export returns); thresholds converts the
// threshold-usage map. Shared by checkpoint capture and the
// partial-result wire path (RunPartial).
func exportMetrics[T any](m *Metrics, thresholds func(map[int]int64) T) metricsState[T] {
	mc := metricsState[T]{
		Updates: m.Updates, Calls: m.Calls, PolledCells: m.PolledCells,
		UpdateBytes: m.UpdateBytes, PollBytes: m.PollBytes, ReplyBytes: m.ReplyBytes,
		NotFound:    m.NotFound,
		LostUpdates: m.LostUpdates, LostPolls: m.LostPolls, LostReplies: m.LostReplies,
		FallbackCalls: m.FallbackCalls, Retransmissions: m.Retransmissions,
		Acks: m.Acks, AckBytes: m.AckBytes,
		RePolls: m.RePolls, DroppedCalls: m.DroppedCalls,
		OutageDeferred: m.OutageDeferred,
		Delay:          m.Delay,
		Recovery:       m.Recovery,
		DelayHist:      m.DelayHist.Clone(),
		RecoveryHist:   m.RecoveryHist.Clone(),
		ThresholdSlots: thresholds(m.ThresholdSlots),
		PerTerminal:    make([]TermStatsCheckpoint, len(m.PerTerminal)),
	}
	for i := range m.PerTerminal {
		ts := &m.PerTerminal[i]
		mc.PerTerminal[i] = TermStatsCheckpoint{Updates: ts.Updates, Calls: ts.Calls, PolledCells: ts.PolledCells}
	}
	return mc
}

// restoreShardCore overlays a shard checkpoint onto freshly-built shard
// state (newShardNetwork output): terminal structs, RNG positions,
// registry records, the network's counters and the metrics state. The
// engine restores its own scheduler state afterwards. The checkpoint
// passed validateResume, so its vectors are sized to the shard.
func restoreShardCore(n *network, terms []terminal, rngs []stats.RNG, sc *ShardCheckpoint) {
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

	sc.Metrics.restoreInto(n.metrics, cloneThresholds)
}

// cloneThresholds copies a checkpoint's threshold-usage map; never nil,
// since the engines increment it (a columnar checkpoint taken before any
// threshold change holds no entries and decodes as a nil map).
func cloneThresholds(m map[int]int64) map[int]int64 {
	out := make(map[int]int64, len(m))
	maps.Copy(out, m)
	return out
}

// restoreInto overlays the measurement state onto m, whose PerTerminal
// records must already be sized to the shard: the counters, copies of
// the moments and histograms, the threshold-usage counts rebuilt by
// thresholds, and each terminal's counters, bit for bit. The
// inverse of exportMetrics, shared by checkpoint resume and the partial
// merge.
func (mc *metricsState[T]) restoreInto(m *Metrics, thresholds func(T) map[int]int64) {
	m.Updates, m.Calls, m.PolledCells = mc.Updates, mc.Calls, mc.PolledCells
	m.UpdateBytes, m.PollBytes, m.ReplyBytes = mc.UpdateBytes, mc.PollBytes, mc.ReplyBytes
	m.NotFound = mc.NotFound
	m.LostUpdates, m.LostPolls, m.LostReplies = mc.LostUpdates, mc.LostPolls, mc.LostReplies
	m.FallbackCalls, m.Retransmissions = mc.FallbackCalls, mc.Retransmissions
	m.Acks, m.AckBytes = mc.Acks, mc.AckBytes
	m.RePolls, m.DroppedCalls = mc.RePolls, mc.DroppedCalls
	m.OutageDeferred = mc.OutageDeferred
	m.Delay, m.Recovery = mc.Delay, mc.Recovery
	m.DelayHist = mc.DelayHist.Clone()
	m.RecoveryHist = mc.RecoveryHist.Clone()
	m.ThresholdSlots = thresholds(mc.ThresholdSlots)
	for i := range mc.PerTerminal {
		tsc := &mc.PerTerminal[i]
		ts := &m.PerTerminal[i]
		ts.Updates, ts.Calls, ts.PolledCells = tsc.Updates, tsc.Calls, tsc.PolledCells
	}
}

// ckptMagic versions the checkpoint wire format (codec.go). The gob
// formats before it still decode, read-only (checkpoint_legacy.go):
// ckptMagicV2 files directly, and ckptMagicV1 files, whose metrics and
// telemetry frames held per-terminal Welford states, by conversion.
var (
	ckptMagic   = []byte("PCNCKPT3")
	ckptMagicV2 = []byte("PCNCKPT2")
	ckptMagicV1 = []byte("PCNCKPT1")
)

// EncodeCheckpoint serializes a checkpoint to a self-checking byte
// format: a magic header, the columnar payload (codec.go) and a CRC32
// trailer. Float64 values travel as their bit patterns, so decoding
// reproduces every RNG position and estimator exactly, and equal
// checkpoints encode to equal bytes. The error is always nil.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	return encodeFramed(ckptMagic, putCheckpoint, cp), nil
}

// CheckpointFrame is a checkpoint's encoding held in pieces: the head of
// the payload (putCheckpointHead) and every shard's section. It references
// only encoded bytes, so the checkpoint it was framed from need not
// outlive it, and it streams to a writer without being assembled in
// memory.
type CheckpointFrame struct {
	// Slot is the framed checkpoint's boundary.
	Slot   int64
	pieces [][]byte
}

// FrameCheckpoint frames cp, reusing the sections its shards encoded at
// capture and encoding the others.
func FrameCheckpoint(cp *Checkpoint) *CheckpointFrame {
	f := &CheckpointFrame{Slot: cp.Slot, pieces: make([][]byte, 0, 1+len(cp.Shard))}
	f.pieces = append(f.pieces, encodePayload(nil, 0, putCheckpointHead, cp))
	for i := range cp.Shard {
		f.pieces = append(f.pieces, cp.Shard[i].section())
	}
	return f
}

// WriteTo writes the encoded checkpoint, EncodeCheckpoint's bytes, to w.
func (f *CheckpointFrame) WriteTo(w io.Writer) (int64, error) {
	return writeFramed(w, ckptMagic, f.pieces)
}

// DecodeCheckpoint parses bytes produced by EncodeCheckpoint, or by the
// PCNCKPT1/PCNCKPT2 encoders before it, rejecting unknown formats,
// corrupted payloads (checksum mismatch) and, for the current format,
// payloads that do not parse (ErrMalformedPayload). Decoding a current
// checkpoint allocates memory proportional to its length.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	var err error
	switch {
	case bytes.HasPrefix(data, ckptMagicV1):
		err = decodeCheckpointV1(data, cp)
	case bytes.HasPrefix(data, ckptMagicV2):
		err = decodeGob(ckptMagicV2, "checkpoint", data, cp)
	default:
		err = decodeFramed(ckptMagic, "checkpoint", getCheckpoint, data, cp)
	}
	if err != nil {
		return nil, err
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
// assembled checkpoint is handed to the sink. Each shard encodes its own
// section as it delivers, so the shards encode in parallel and the sink
// gets a checkpoint that only needs framing. Because each shard delivers
// its boundaries in order, boundary B's checkpoint always completes
// before B+every's, so the sink observes checkpoints in increasing slot
// order; the sink runs under the aggregator's lock, so a sink that
// blocks holds back every shard's next delivery.
type ckptAggregator struct {
	mu      sync.Mutex
	shape   Checkpoint // Slot/Shard unset; the shared header fields
	pending map[int64][]ShardCheckpoint
	count   map[int64]int
	sink    func(*Checkpoint)
}

func newCkptAggregator(shape Checkpoint, sink func(*Checkpoint)) *ckptAggregator {
	return &ckptAggregator{
		shape:   shape,
		pending: make(map[int64][]ShardCheckpoint),
		count:   make(map[int64]int),
		sink:    sink,
	}
}

// add encodes one shard's capture for a boundary, on the delivering
// shard's goroutine, and delivers it; the completing delivery assembles
// the checkpoint and invokes the sink synchronously (on that goroutine).
func (a *ckptAggregator) add(shard int, sc ShardCheckpoint) {
	sc.encoded = sc.section()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := sc.Slot
	if a.pending[b] == nil {
		a.pending[b] = make([]ShardCheckpoint, a.shape.Shards)
	}
	a.pending[b][shard] = sc
	a.count[b]++
	if a.count[b] < a.shape.Shards {
		return
	}
	cp := a.shape
	cp.Slot = b
	cp.Shard = a.pending[b]
	delete(a.pending, b)
	delete(a.count, b)
	a.sink(&cp)
}
