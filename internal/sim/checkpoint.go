package sim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// its head fields and each shard's encoded section, which the shard
// wrote straight from its live state at the boundary; its Shard is nil.
// EncodeCheckpoint and FrameCheckpoint frame those sections as they
// are, and resuming from it decodes them. Code that wants the per-shard
// fields decodes the checkpoint (DecodeCheckpoint of its encoding); a
// decoded checkpoint may be edited and encoded again.
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
	// that took it.
	Engine Engine
	// Scheme and SchemeParam record the update scheme the run uses
	// (SchemeNames / UpdateScheme.Param); resuming under a different
	// trigger would replay a different mechanism entirely.
	Scheme      string
	SchemeParam int64
	// Shard holds the per-shard state, indexed by shard, of a decoded or
	// built checkpoint; nil in one a run delivered.
	Shard []ShardCheckpoint

	// sections holds each shard's PCNCKPT3 section, indexed by shard, as
	// the shard encoded it (putLiveShard) in a checkpoint a run
	// delivered; nil otherwise.
	sections [][]byte
}

// ShardCheckpoint is one shard's share of a Checkpoint, in field form:
// what DecodeCheckpoint returns, Resume reads and EncodeCheckpoint
// writes (putShardCheckpoint) for a checkpoint built or edited in
// memory. A run never builds one: its shards encode the same bytes
// straight from their live state (putLiveShard). The registry and the
// measurements are in the types the run itself keeps (HLRRecord,
// Metrics), so both writers share their tables.
type ShardCheckpoint struct {
	// Slot echoes Checkpoint.Slot; Lo and Hi are the shard's global
	// terminal range [Lo, Hi).
	Slot   int64
	Lo, Hi int
	// Terms and HLR hold the per-terminal mobile-side and registry state,
	// indexed by terminal position within the shard.
	Terms []TermCheckpoint
	HLR   []HLRRecord
	// Metrics is the shard's accumulated measurement state: the counters,
	// Events, the moments, the histograms, ThresholdSlots and each
	// PerTerminal record's Updates, Calls and PolledCells. Events is the
	// columnar engine's cumulative dispatched sub-slot event count; the
	// reference engine derives its count from the scheduler's Processed
	// counter and carries 0. The run shape, the ids and the cost
	// averages are not carried: resume keeps the fresh shard's.
	Metrics Metrics
	// Snapshots is the telemetry series captured so far (including a
	// frame at this boundary when it lies on the telemetry cadence).
	Snapshots []telemetry.ShardFrame
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
	// runs.
	Moves       int64
	LastContact int64
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

// liveShard is a shard's live state at a checkpoint boundary, as
// putLiveShard walks it into the shard's section. The engine builds it
// once and updates the per-boundary fields (slot, frames, slotStamp)
// before each encode; the registry and the metrics it reads from the
// network, n.
type liveShard struct {
	slot   int64
	lo, hi int
	n      *network
	terms  []terminal
	rngs   []stats.RNG
	frames []telemetry.ShardFrame
	// cols is the columnar engine's state, whose per-terminal schedulers
	// are scheds; nil for the reference engine, whose one shard scheduler
	// is scheds[0] and whose running slot event was stamped slotStamp.
	cols      *colsState
	scheds    []des.Scheduler
	slotStamp uint64

	// pending gathers the schedulers' pending events and enc is the
	// section encoder; both keep their buffers across boundaries.
	pending []des.PendingEvent
	enc     encoder
}

// encode returns the shard's PCNCKPT3 section at the current boundary:
// the bytes putShardCheckpoint writes for a ShardCheckpoint of the same
// state.
func (s *liveShard) encode() []byte {
	return encodePayload(&s.enc, putLiveShard, s)
}

// restoreShardCore overlays a shard checkpoint onto freshly-built shard
// state (newShardNetwork output): terminal structs and columns, RNG
// positions, the registry and the metrics state. The engine restores its
// own scheduler state afterwards. The checkpoint passed validateResume,
// so its vectors are sized to the shard.
func restoreShardCore(n *network, terms []terminal, rngs []stats.RNG, sc *ShardCheckpoint) {
	for i := range terms {
		t := &terms[i]
		tc := &sc.Terms[i]
		n.pos[i], n.ctr[i], n.thr[i] = tc.Pos, tc.Center, int32(tc.Threshold)
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
	copy(n.hlr, sc.HLR)
	n.metrics.restore(&sc.Metrics)
}

// ckptMagic versions the checkpoint wire format (codec.go). The gob
// formats before it, PCNCKPT1 and PCNCKPT2, are refused by name
// (ErrRetiredCheckpointFormat): a checkpoint lives only while its job is
// in flight, so an old one costs a clean re-run, never a wrong byte.
var (
	ckptMagic        = []byte("PCNCKPT3")
	retiredCkptMagic = [][]byte{[]byte("PCNCKPT1"), []byte("PCNCKPT2")}
)

// ErrRetiredCheckpointFormat rejects a checkpoint written in a format no
// longer read (PCNCKPT1 or PCNCKPT2). Its run can only start again from
// slot 0, which yields the same bytes a resume would have.
var ErrRetiredCheckpointFormat = errors.New("sim: retired checkpoint format")

// EncodeCheckpoint serializes a checkpoint to a self-checking byte
// format: a magic header, the columnar payload (codec.go) and a CRC32
// trailer. Float64 values travel as their bit patterns, so decoding
// reproduces every RNG position and estimator exactly, and equal
// checkpoints encode to equal bytes. The bytes are its frame's
// (FrameCheckpoint), assembled in one buffer of the exact size. The
// error is always nil.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	f := FrameCheckpoint(cp)
	size := len(ckptMagic) + 4
	for _, p := range f.pieces {
		size += len(p)
	}
	b := bytes.NewBuffer(make([]byte, 0, size))
	f.WriteTo(b) // a bytes.Buffer write never fails
	return b.Bytes(), nil
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

// FrameCheckpoint frames cp: the head, then the sections a run
// delivered as they are, or every shard's fields encoded afresh
// (putShardCheckpoint).
func FrameCheckpoint(cp *Checkpoint) *CheckpointFrame {
	f := &CheckpointFrame{Slot: cp.Slot, pieces: make([][]byte, 0, 1+len(cp.Shard)+len(cp.sections))}
	e := &encoder{}
	f.pieces = append(f.pieces, encodePayload(e, putCheckpointHead, cp))
	f.pieces = append(f.pieces, cp.sections...)
	for i := range cp.Shard {
		f.pieces = append(f.pieces, encodePayload(e, putShardCheckpoint, &cp.Shard[i]))
	}
	return f
}

// WriteTo writes the encoded checkpoint, EncodeCheckpoint's bytes, to w.
func (f *CheckpointFrame) WriteTo(w io.Writer) (int64, error) {
	return writeFramed(w, ckptMagic, f.pieces)
}

// DecodeCheckpoint parses bytes produced by EncodeCheckpoint, rejecting
// the retired formats by their magic alone (ErrRetiredCheckpointFormat),
// unknown formats, corrupted payloads (checksum mismatch) and payloads
// that do not parse (ErrMalformedPayload). It allocates memory
// proportional to data's length.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	for _, magic := range retiredCkptMagic {
		if bytes.HasPrefix(data, magic) {
			return nil, fmt.Errorf("%w %s", ErrRetiredCheckpointFormat, magic)
		}
	}
	cp := &Checkpoint{}
	if err := decodeFramed(ckptMagic, "checkpoint", getCheckpoint, data, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// ckptAggregator assembles per-shard sections into whole Checkpoints. A
// consistent checkpoint needs every shard at the same boundary, but the
// shards run freely — nothing blocks at a boundary — so sections for a
// boundary accumulate until the last shard delivers, at which point the
// assembled checkpoint is handed to the sink. Each shard encodes its own
// section before it delivers, so the shards encode in parallel and the
// sink gets a checkpoint that only needs framing. Because each shard
// delivers its boundaries in order, boundary B's checkpoint always
// completes before B+every's, so the sink observes checkpoints in
// increasing slot order; the sink runs under the aggregator's lock, so a
// sink that blocks holds back every shard's next delivery.
type ckptAggregator struct {
	mu      sync.Mutex
	shape   Checkpoint // Slot/sections unset; the shared header fields
	pending map[int64][][]byte
	count   map[int64]int
	sink    func(*Checkpoint)
}

func newCkptAggregator(shape Checkpoint, sink func(*Checkpoint)) *ckptAggregator {
	return &ckptAggregator{
		shape:   shape,
		pending: make(map[int64][][]byte),
		count:   make(map[int64]int),
		sink:    sink,
	}
}

// add delivers one shard's section for boundary slot; the completing
// delivery assembles the checkpoint and invokes the sink synchronously
// (on that shard's goroutine).
func (a *ckptAggregator) add(shard int, slot int64, section []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pending[slot] == nil {
		a.pending[slot] = make([][]byte, a.shape.Shards)
	}
	a.pending[slot][shard] = section
	a.count[slot]++
	if a.count[slot] < a.shape.Shards {
		return
	}
	cp := a.shape
	cp.Slot = slot
	cp.sections = a.pending[slot]
	delete(a.pending, slot)
	delete(a.count, slot)
	a.sink(&cp)
}
