package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// framed wraps payload in magic and a valid CRC32 trailer, so a test's
// bytes reach the payload decoder instead of failing the checksum.
func framed(magic, payload []byte) []byte {
	data := append(append([]byte(nil), magic...), payload...)
	return binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// codecRand draws field values that reach every width the codec handles:
// zero, small values, all-ones and random 64-bit patterns.
type codecRand struct{ *rand.Rand }

func (r codecRand) u64() uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(r.Intn(300))
	case 2:
		return math.MaxUint64 >> r.Intn(64)
	}
	return r.Uint64()
}

func (r codecRand) i64() int64 {
	v := int64(r.u64())
	if r.Intn(2) == 0 {
		return -v
	}
	return v
}

func (r codecRand) float() float64 {
	for {
		if f := math.Float64frombits(r.u64()); !math.IsNaN(f) {
			return f
		}
	}
}

// n returns a length in [0, max), empty half the time.
func (r codecRand) n(max int) int {
	if r.Intn(2) == 0 {
		return 0
	}
	return r.Intn(max)
}

func (r codecRand) moments() stats.Moments {
	m := stats.NewMoments(1 + int64(r.Intn(4096)))
	for range r.n(5) {
		m.Add(int64(r.Intn(1 << 20)))
	}
	return m
}

func (r codecRand) hist() *telemetry.Hist {
	if r.Intn(4) == 0 {
		return nil
	}
	h := &telemetry.Hist{Width: r.float(), Overflow: r.i64(), N: r.i64(), Min: r.float(), Max: r.float()}
	for range r.n(40) {
		h.Counts = append(h.Counts, r.i64())
	}
	return h
}

func (r codecRand) frames() []telemetry.ShardFrame {
	var out []telemetry.ShardFrame
	for range r.n(4) {
		out = append(out, telemetry.ShardFrame{
			Slot: r.i64(),
			Counters: telemetry.Counters{Updates: r.i64(), LostUpdates: r.i64(), Retransmissions: r.i64(),
				Calls: r.i64(), PolledCells: r.i64(), DroppedCalls: r.i64(), RePolls: r.i64(), Events: r.u64()},
			Delay:    r.moments(),
			Recovery: r.moments(),
		})
	}
	return out
}

// thresholds returns threshold-usage counts at distinct thresholds, nil
// when there are none (as the decoder returns them).
func (r codecRand) thresholds() map[int]int64 {
	var out map[int]int64
	d := int(r.i64() >> 2)
	for range r.n(6) {
		if out == nil {
			out = make(map[int]int64)
		}
		out[d] = r.i64()
		d += 1 + r.Intn(1000)
	}
	return out
}

// randMetrics draws the Metrics fields the wire carries, Events aside:
// the counters, the moments, the histograms, the threshold-usage counts
// and width terminals' three counters.
func randMetrics(r codecRand, thresholds map[int]int64, width int) Metrics {
	m := Metrics{Delay: r.moments(), Recovery: r.moments(),
		DelayHist: r.hist(), RecoveryHist: r.hist(), ThresholdSlots: thresholds}
	for _, c := range m.counters() {
		*c = r.i64()
	}
	for range width {
		m.PerTerminal = append(m.PerTerminal, TerminalStats{Updates: r.i64(), Calls: r.i64(), PolledCells: r.i64()})
	}
	return m
}

func (r codecRand) sched() SchedCheckpoint {
	s := SchedCheckpoint{Now: r.u64(), Seq: r.u64(), Ran: r.u64()}
	for range r.n(4) {
		s.Pending = append(s.Pending, des.PendingEvent{At: des.Time(r.u64()), Seq: r.u64(), Tag: r.u64()})
	}
	return s
}

// randCheckpoint draws a structurally valid checkpoint of engine: any
// field values, empty slices as nil (as the decoder returns them), and
// the columnar engine's per-terminal schedulers or the reference
// engine's shard scheduler.
func randCheckpoint(r codecRand, engine Engine) *Checkpoint {
	cp := &Checkpoint{Slot: r.i64(), Slots: r.i64(), Shards: int(r.i64()), StartD: int(r.i64()),
		Seed: r.u64(), Engine: engine, SchemeParam: r.i64()}
	if r.Intn(2) == 0 {
		cp.Scheme = "movement"
	}
	for range 1 + r.Intn(3) {
		width := r.n(300)
		thresholds := r.thresholds()
		sc := ShardCheckpoint{Slot: r.i64(), Lo: int(r.i64()), Hi: int(r.i64()), CallSeq: uint32(r.u64())}
		events := r.u64()
		sc.Metrics = randMetrics(r, thresholds, r.n(300))
		sc.Metrics.Events = events
		sc.Snapshots = r.frames()
		for range width {
			cell := func() wire.Cell { return wire.Cell{Q: int32(r.i64()), R: int32(r.i64())} }
			sc.Terms = append(sc.Terms, TermCheckpoint{Pos: cell(), Center: cell(), Threshold: int(r.i64()),
				Seq: uint32(r.u64()), AckedSeq: uint32(r.u64()), Retries: int(r.i64()), Desynced: r.Intn(2) == 0,
				DesyncedAt: r.u64(), EstQ: r.float(), EstC: r.float(), RNG: [4]uint64{r.u64(), r.u64(), r.u64(), r.u64()},
				Moves: r.i64(), LastContact: r.i64()})
			sc.HLR = append(sc.HLR, HLRRecord{Center: cell(), Seq: uint32(r.u64()), Threshold: int(r.i64())})
		}
		if engine == EngineDES {
			sc.DES = &DESCheckpoint{Sched: r.sched(), SlotEventSeq: r.u64()}
		} else {
			for range width {
				sc.Scheds = append(sc.Scheds, r.sched())
				sc.PreSweep = append(sc.PreSweep, r.u64())
				sc.CurD = append(sc.CurD, r.i64())
				sc.RunLen = append(sc.RunLen, r.i64())
			}
		}
		cp.Shard = append(cp.Shard, sc)
	}
	return cp
}

// randPartial draws a structurally valid partial.
func randPartial(r codecRand) *Partial {
	p := &Partial{Slots: r.i64(), Shards: int(r.i64()), Seed: r.u64(), Lo: int(r.i64()), Hi: int(r.i64())}
	for range 1 + r.Intn(3) {
		width := r.n(300)
		sp := ShardPartial{Shard: int(r.i64()), Lo: int(r.i64()), Hi: int(r.i64())}
		events := r.u64()
		sp.Metrics = randMetrics(r, r.thresholds(), width)
		sp.Metrics.Events = events
		sp.Snapshots = r.frames()
		for i := range width {
			sp.Metrics.PerTerminal[i].FinalThreshold = int(r.i64())
		}
		p.Shard = append(p.Shard, sp)
	}
	return p
}

// TestCodecRoundTrip is the encode∘decode property: random valid
// checkpoints of both engines and random partials decode to exactly the
// value encoded, and re-encode to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	r := codecRand{rand.New(rand.NewSource(1))}
	for i := range 200 {
		for _, engine := range []Engine{EngineCols, EngineDES} {
			cp := randCheckpoint(r, engine)
			data, err := EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("case %d, %s: %v", i, engine, err)
			}
			if !reflect.DeepEqual(got, cp) {
				t.Fatalf("case %d, %s: checkpoint changed in the round trip:\n got %+v\nwant %+v", i, engine, got, cp)
			}
			if again, _ := EncodeCheckpoint(got); !bytes.Equal(again, data) {
				t.Fatalf("case %d, %s: re-encoding changed the bytes", i, engine)
			}
		}
		p := randPartial(r)
		data, err := EncodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePartial(data)
		if err != nil {
			t.Fatalf("case %d, partial: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("case %d: partial changed in the round trip:\n got %+v\nwant %+v", i, got, p)
		}
		if again, _ := EncodePartial(got); !bytes.Equal(again, data) {
			t.Fatalf("case %d: re-encoding the partial changed the bytes", i)
		}
	}
}

// TestDecodeBoundsHostileLength: a 100-byte payload claiming 2^40
// terminals, or 2^40 shards, fails with ErrMalformedPayload before
// anything is sized by the claim.
func TestDecodeBoundsHostileLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		claim func(e *encoder)
	}{
		{"2^40 terminals", func(e *encoder) {
			e.count(1)        // one shard,
			e.varint(1)       // at slot 1,
			e.varint(0)       // over terminals [0,
			e.varint(1 << 40) // 2^40),
			e.uvarint(0)      // call sequence,
			e.uvarint(0)      // sub-slot events,
			e.count(1 << 40)  // and 2^40 terminal records
		}},
		{"2^40 shards", func(e *encoder) { e.count(1 << 40) }},
	} {
		e := &encoder{buf: []byte{}}
		putCheckpointHead(e, &Checkpoint{Slot: 1, Slots: 2, Shards: 1, Seed: 7})
		e.buf = e.buf[:len(e.buf)-1] // drop the empty shard section
		tc.claim(e)
		payload := append(e.buf, make([]byte, 100-len(e.buf))...)
		data := framed(ckptMagic, payload)

		var err error
		n := allocated(func() { _, err = DecodeCheckpoint(data) })
		if !errors.Is(err, ErrMalformedPayload) {
			t.Fatalf("%s: got %v, want ErrMalformedPayload", tc.name, err)
		}
		if n >= 1<<20 {
			t.Errorf("%s: decoding a 100-byte payload allocated %d bytes", tc.name, n)
		}
	}
}

// TestDecodeRejectsTruncation: every proper prefix of a valid payload,
// re-framed, fails to decode with ErrMalformedPayload.
func TestDecodeRejectsTruncation(t *testing.T) {
	r := codecRand{rand.New(rand.NewSource(2))}
	cp := randCheckpoint(r, EngineCols)
	data, _ := EncodeCheckpoint(cp)
	payload := data[len(ckptMagic) : len(data)-4]
	for n := range len(payload) {
		if _, err := DecodeCheckpoint(framed(ckptMagic, payload[:n])); !errors.Is(err, ErrMalformedPayload) {
			t.Fatalf("%d of %d payload bytes: got %v, want ErrMalformedPayload", n, len(payload), err)
		}
	}
	if _, err := DecodeCheckpoint(framed(ckptMagic, append(payload[:len(payload):len(payload)], 0))); !errors.Is(err, ErrMalformedPayload) {
		t.Fatalf("a trailing byte: got %v, want ErrMalformedPayload", err)
	}
}

// TestDecodePartialRejectsTableMismatch: a partial's final-threshold
// table fills the records its terminal-stats table decoded, so a
// payload whose two tables differ in length, either way, fails with
// ErrMalformedPayload.
func TestDecodePartialRejectsTableMismatch(t *testing.T) {
	for _, tc := range []struct{ counts, finals int }{{3, 2}, {2, 3}, {0, 1}, {1, 0}} {
		m := Metrics{Recovery: stats.NewMoments(SlotTicks), PerTerminal: make([]TerminalStats, max(tc.counts, tc.finals))}
		e := &encoder{}
		putPartial(e, &Partial{Slots: 1, Shards: 1, Hi: 1}) // the head, then one shard:
		e.buf = e.buf[:len(e.buf)-1]                        // drop the empty shard section
		e.count(1)
		e.varint(0) // shard 0
		e.varint(0) // over terminals [0,
		e.varint(int64(len(m.PerTerminal)))
		e.uvarint(0) // sub-slot events
		all := m.PerTerminal
		m.PerTerminal = all[:tc.counts]
		putMetrics(e, &m)
		putTable(e, all[:tc.finals], finalThresholdLayout)
		putFrames(e, nil)
		if _, err := DecodePartial(framed(partMagic, e.bytes(nil, 0))); !errors.Is(err, ErrMalformedPayload) {
			t.Errorf("%d terminal stats, %d final thresholds: got %v, want ErrMalformedPayload", tc.counts, tc.finals, err)
		}
	}
}

// checkDecodeBounded fails t when decoding data allocated more than a
// constant multiple of its length: the codec sizes nothing from a
// length before checking it against the bytes present.
func checkDecodeBounded(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	var err error
	n := allocated(func() { err = decode(data) })
	if limit := 64*uint64(len(data)) + 1<<20; n > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d); error %v", len(data), n, limit, err)
	}
}

// FuzzDecodeCheckpoint feeds arbitrary payloads, re-framed with a valid
// checksum, to DecodeCheckpoint. It must return a checkpoint or an
// error, never panic, and allocate at most a constant multiple of the
// input. A payload that itself begins with a retired magic must, decoded
// as a whole file, fail with ErrRetiredCheckpointFormat. The seeds are
// FuzzResumeCheckpoint's runs' checkpoints of both engines, which hold
// pending timers, then the first of them framed as a PCNCKPT1 and as a
// PCNCKPT2 file.
func FuzzDecodeCheckpoint(f *testing.F) {
	var first []byte
	for _, engine := range []Engine{EngineCols, EngineDES} {
		cfg := partialConfig(engine)
		cfg.Faults.AckTimeout = 50 * SlotTicks
		if _, err := RunShardedOpts(context.Background(), cfg, 400, 2, RunOpts{
			CheckpointEvery: 150,
			CheckpointSink: func(cp *Checkpoint) {
				data, _ := EncodeCheckpoint(cp)
				payload := data[len(ckptMagic) : len(data)-4]
				if first == nil {
					first = payload
				}
				f.Add(payload)
			},
		}); err != nil {
			f.Fatal(err)
		}
	}
	for _, magic := range retiredCkptMagic {
		f.Add(framed(magic, first))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeBounded(t, framed(ckptMagic, payload), func(data []byte) error {
			_, err := DecodeCheckpoint(data)
			return err
		})
		for _, magic := range retiredCkptMagic {
			if bytes.HasPrefix(payload, magic) {
				if _, err := DecodeCheckpoint(payload); !errors.Is(err, ErrRetiredCheckpointFormat) {
					t.Fatalf("%s file: got %v, want ErrRetiredCheckpointFormat", magic, err)
				}
			}
		}
	})
}

// FuzzDecodePartial is FuzzDecodeCheckpoint for DecodePartial, seeded
// with FuzzMergePartials' partial.
func FuzzDecodePartial(f *testing.F) {
	p, err := RunPartial(context.Background(), partialConfig(EngineCols), 250, 2, 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	data, _ := EncodePartial(p)
	f.Add(data[len(partMagic) : len(data)-4])
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeBounded(t, framed(partMagic, payload), func(data []byte) error {
			_, err := DecodePartial(data)
			return err
		})
	})
}

// benchCheckpointBytes holds the encoded 100k-terminal checkpoint the
// codec benchmarks share, made once per test binary.
var benchCheckpointBytes = sync.OnceValues(func() ([]byte, error) {
	// The paper's Table point (2-D, q=0.05, c=0.01, m=3, d=3) over two
	// shards, checkpointed at slot 128 of 256: the shape of one
	// checkpoint of a durable benchmark job.
	cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 3, 3)
	cfg.Terminals = 100_000
	var data []byte
	var err error
	if _, runErr := RunShardedOpts(context.Background(), cfg, 256, 2, RunOpts{
		CheckpointEvery: 128,
		CheckpointSink:  func(cp *Checkpoint) { data, err = EncodeCheckpoint(cp) },
	}); runErr != nil {
		return nil, runErr
	}
	return data, err
})

func benchCheckpoint(b *testing.B) ([]byte, *Checkpoint) {
	b.Helper()
	data, err := benchCheckpointBytes()
	if err != nil {
		b.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		b.Fatal(err)
	}
	return data, cp
}

var (
	benchSink           []byte
	benchCheckpointSink *Checkpoint
)

// BenchmarkEncodeCheckpoint measures EncodeCheckpoint on a 100k-terminal
// checkpoint, checksum included; the throughput is in encoded bytes.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	data, cp := benchCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeCheckpoint(cp)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

// BenchmarkDecodeCheckpoint measures DecodeCheckpoint on the same
// checkpoint.
func BenchmarkDecodeCheckpoint(b *testing.B) {
	data, _ := benchCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			b.Fatal(err)
		}
		benchCheckpointSink = cp
	}
}
