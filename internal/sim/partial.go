package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"repro/internal/chain"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Partial is the serializable outcome of running a contiguous slice
// [Lo, Hi) of the shards of a shards-way sharded run — the unit of work a
// cluster worker executes and ships back to its coordinator. Because every
// terminal's RNG stream is addressed by (Seed, terminal id) and shard s
// always covers terminals [s·T/shards, (s+1)·T/shards), a shard's partial
// is bit-identical no matter which machine produced it, and MergePartials
// folds any complete, disjoint set of partials into Metrics bit-identical
// to RunSharded on one machine — the cross-machine extension of the
// shard-count-invariance contract.
//
// All fields are exported and concrete so the structure round-trips
// exactly through gob (EncodePartial/DecodePartial): float64 values are
// encoded by bit pattern, which the Welford accumulator states and the
// per-terminal cost rates require.
type Partial struct {
	// Slots, Shards and Seed echo the run shape the partial belongs to;
	// MergePartials validates them against the offered configuration
	// rather than silently folding results from a different run.
	Slots  int64
	Shards int
	Seed   uint64
	// Lo and Hi delimit the shard slice [Lo, Hi) this partial covers.
	Lo, Hi int
	// Shard holds the per-shard results, indexed by shard − Lo.
	Shard []ShardPartial
}

// ShardPartial is one global shard's share of a Partial: everything the
// merge needs to rebuild the shard's Metrics exactly as finishShard left
// them on the producing machine.
type ShardPartial struct {
	// Shard is the global shard index; Lo and Hi are the shard's global
	// terminal range [Lo, Hi).
	Shard  int
	Lo, Hi int
	// SubEvents is the shard's sub-slot event count (the slot-sweep chain
	// is added back once by MergePartials, like RunSharded's merge).
	SubEvents uint64
	// Metrics is the shard's measurement state in checkpoint form.
	Metrics MetricsCheckpoint
	// TotalCost and FinalThreshold carry finishShard's per-terminal tail
	// fields (indexed by terminal position within the shard); shipping
	// the computed float64 bit patterns keeps the merge arithmetic-free.
	TotalCost      []float64
	FinalThreshold []int
	// Frames is the shard's telemetry snapshot series; MergePartials
	// re-assembles the global series with telemetry.MergeFrames exactly
	// as a single-node run would.
	Frames []FrameCheckpoint
}

// RunPartial runs shards [lo, hi) of a shards-way partition of the
// configured population — the worker half of a distributed run. The
// shard geometry (terminal ranges, RNG streams, start threshold) is
// derived exactly as RunShardedOpts derives it, so the returned partial
// is bit-identical to the same shards' share of a single-node run.
// Unlike RunSharded, shards must be explicit (a GOMAXPROCS default would
// differ across machines). cfg.Telemetry.Progress, when set, is
// initialized for the full global shard count; only entries [lo, hi)
// receive updates. Cancelling ctx stops in-flight shards within a
// bounded amount of work and returns ctx.Err().
func RunPartial(ctx context.Context, cfg Config, slots int64, shards, lo, hi int) (*Partial, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg, slots); err != nil {
		return nil, err
	}
	if shards < 1 || shards > cfg.Terminals {
		return nil, fmt.Errorf("sim: partial run needs an explicit shard count in [1, %d], got %d", cfg.Terminals, shards)
	}
	if lo < 0 || hi > shards || lo >= hi {
		return nil, fmt.Errorf("sim: shard slice [%d,%d) outside [0,%d)", lo, hi, shards)
	}
	startD, err := startThreshold(cfg)
	if err != nil {
		return nil, err
	}
	var loc locator = hexLocator{}
	if cfg.Core.Model == chain.OneDim {
		loc = lineLocator{}
	}
	engine := shardEngine(cfg.Engine)
	cfg.Telemetry.Progress.Init(shards)
	parts, err := sweep.MapCtx(ctx, hi-lo, 0, func(ctx context.Context, i int) (shardResult, error) {
		s := lo + i
		return engine(ctx, shardRun{
			cfg:    cfg,
			slots:  slots,
			shard:  s,
			lo:     s * cfg.Terminals / shards,
			hi:     (s + 1) * cfg.Terminals / shards,
			startD: startD,
			loc:    loc,
		})
	})
	if err != nil {
		return nil, err
	}
	p := &Partial{
		Slots:  slots,
		Shards: shards,
		Seed:   cfg.Seed,
		Lo:     lo,
		Hi:     hi,
		Shard:  make([]ShardPartial, hi-lo),
	}
	for i, pr := range parts {
		s := lo + i
		p.Shard[i] = exportShardPartial(s, s*cfg.Terminals/shards, (s+1)*cfg.Terminals/shards, pr)
	}
	return p, nil
}

// exportShardPartial converts one engine shard result into its wire form.
func exportShardPartial(shard, lo, hi int, r shardResult) ShardPartial {
	m := r.metrics
	sp := ShardPartial{
		Shard:          shard,
		Lo:             lo,
		Hi:             hi,
		SubEvents:      m.Events,
		Metrics:        exportMetrics(m),
		TotalCost:      make([]float64, len(m.PerTerminal)),
		FinalThreshold: make([]int, len(m.PerTerminal)),
		Frames:         exportFrames(r.frames),
	}
	for i := range m.PerTerminal {
		sp.TotalCost[i] = m.PerTerminal[i].TotalCost
		sp.FinalThreshold[i] = m.PerTerminal[i].FinalThreshold
	}
	return sp
}

// PartialMismatchError reports a partial that does not describe the run
// it is being merged into: a different run shape (slots, shard count,
// seed) or a shard slice that does not tile the expected partition.
// Distinguishing it from structural corruption lets a coordinator treat
// the sender as confused (re-dispatch elsewhere) rather than the bytes
// as damaged.
type PartialMismatchError struct {
	// Field names the mismatched dimension ("slots", "shards", "seed",
	// "slice", "coverage"); Got and Want are its two sides, stringified.
	Field string
	Got   string
	Want  string
}

func (e *PartialMismatchError) Error() string {
	return fmt.Sprintf("sim: partial %s mismatch: got %s, want %s", e.Field, e.Got, e.Want)
}

// Validate checks a Partial's internal structural consistency — the
// shard slice tiling, per-shard vector lengths, histogram presence —
// without reference to any configuration. DecodePartial output should be
// validated before use; the checks make a hostile document an error, not
// a panic (FuzzPartialDecode).
func (p *Partial) Validate() error {
	if p.Slots <= 0 {
		return fmt.Errorf("sim: partial with %d slots", p.Slots)
	}
	if p.Shards < 1 {
		return fmt.Errorf("sim: partial with %d shards", p.Shards)
	}
	if p.Lo < 0 || p.Hi > p.Shards || p.Lo >= p.Hi {
		return fmt.Errorf("sim: partial shard slice [%d,%d) outside [0,%d)", p.Lo, p.Hi, p.Shards)
	}
	if len(p.Shard) != p.Hi-p.Lo {
		return fmt.Errorf("sim: partial holds %d shard(s), slice [%d,%d) needs %d", len(p.Shard), p.Lo, p.Hi, p.Hi-p.Lo)
	}
	for i := range p.Shard {
		sp := &p.Shard[i]
		if sp.Shard != p.Lo+i {
			return fmt.Errorf("sim: partial shard %d out of place (want shard %d)", sp.Shard, p.Lo+i)
		}
		width := sp.Hi - sp.Lo
		if sp.Lo < 0 || width <= 0 {
			return fmt.Errorf("sim: partial shard %d covers [%d,%d)", sp.Shard, sp.Lo, sp.Hi)
		}
		mc := &sp.Metrics
		if len(mc.PerTerminal) != width || len(sp.TotalCost) != width || len(sp.FinalThreshold) != width {
			return fmt.Errorf("sim: partial shard %d holds %d terminal record(s), range [%d,%d) needs %d",
				sp.Shard, len(mc.PerTerminal), sp.Lo, sp.Hi, width)
		}
		if mc.DelayHist == nil || mc.RecoveryHist == nil {
			return fmt.Errorf("sim: partial shard %d missing latency histogram(s)", sp.Shard)
		}
		for j := range sp.Frames {
			f := &sp.Frames[j]
			if len(f.Delay) != width || len(f.Recovery) != width {
				return fmt.Errorf("sim: partial shard %d frame %d holds %d accumulator(s), want %d",
					sp.Shard, j, len(f.Delay), width)
			}
		}
	}
	return nil
}

// MergePartials folds a complete set of partials — every shard of the
// shards-way partition exactly once, in any grouping and order — into
// the Metrics a single-node RunSharded of the same configuration would
// produce, bit for bit: per-shard Metrics are rebuilt from the wire
// state, merged in global shard order, the slot-sweep event chain is
// added back once, and the telemetry series is assembled with
// telemetry.MergeFrames over all shards. A partial describing a
// different run shape is rejected with *PartialMismatchError; missing or
// duplicated shards and malformed per-shard state are plain errors.
func MergePartials(cfg Config, slots int64, shards int, parts []*Partial) (*Metrics, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg, slots); err != nil {
		return nil, err
	}
	if shards < 1 || shards > cfg.Terminals {
		return nil, fmt.Errorf("sim: partial merge needs an explicit shard count in [1, %d], got %d", cfg.Terminals, shards)
	}
	byShard := make([]*ShardPartial, shards)
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("sim: nil partial")
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.Slots != slots {
			return nil, &PartialMismatchError{Field: "slots",
				Got: fmt.Sprint(p.Slots), Want: fmt.Sprint(slots)}
		}
		if p.Shards != shards {
			return nil, &PartialMismatchError{Field: "shards",
				Got: fmt.Sprint(p.Shards), Want: fmt.Sprint(shards)}
		}
		if p.Seed != cfg.Seed {
			return nil, &PartialMismatchError{Field: "seed",
				Got: fmt.Sprint(p.Seed), Want: fmt.Sprint(cfg.Seed)}
		}
		for i := range p.Shard {
			sp := &p.Shard[i]
			if byShard[sp.Shard] != nil {
				return nil, &PartialMismatchError{Field: "coverage",
					Got: fmt.Sprintf("shard %d twice", sp.Shard), Want: "each shard once"}
			}
			byShard[sp.Shard] = sp
		}
	}
	// Sized once: growing the per-terminal records shard by shard would
	// reallocate (and leave as garbage) most of the population's records.
	merged := &Metrics{PerTerminal: make([]TerminalStats, 0, cfg.Terminals)}
	series := make([][]telemetry.ShardFrame, shards)
	for s := 0; s < shards; s++ {
		sp := byShard[s]
		if sp == nil {
			return nil, &PartialMismatchError{Field: "coverage",
				Got: fmt.Sprintf("shard %d missing", s), Want: fmt.Sprintf("all %d shards", shards)}
		}
		lo, hi := s*cfg.Terminals/shards, (s+1)*cfg.Terminals/shards
		if sp.Lo != lo || sp.Hi != hi {
			return nil, &PartialMismatchError{Field: "slice",
				Got:  fmt.Sprintf("shard %d over terminals [%d,%d)", s, sp.Lo, sp.Hi),
				Want: fmt.Sprintf("[%d,%d)", lo, hi)}
		}
		merged.Merge(restorePartialMetrics(cfg, slots, sp))
		series[s] = restoreFrames(sp.Frames)
	}
	// Each shard reported only its sub-slot events; add the slot-sweep
	// chain once, exactly as RunShardedOpts does after its merge.
	merged.Events += uint64(slots)
	if cfg.Telemetry.SnapshotEvery > 0 {
		merged.Snapshots = telemetry.MergeFrames(series, cfg.Terminals,
			cfg.Core.Costs.Update, cfg.Core.Costs.Poll)
	}
	return merged, nil
}

// restorePartialMetrics rebuilds one shard's Metrics exactly as
// finishShard left them on the producing machine: counters and histogram
// copies, accumulator states restored bit-for-bit, global ids
// re-derived from the shard's terminal range, and the shipped tail
// fields (TotalCost, FinalThreshold) taken verbatim. The shard's
// structural consistency was checked by Partial.Validate.
func restorePartialMetrics(cfg Config, slots int64, sp *ShardPartial) *Metrics {
	mc := &sp.Metrics
	width := sp.Hi - sp.Lo
	m := &Metrics{
		Slots:     slots,
		Terminals: width,
		Updates:   mc.Updates, Calls: mc.Calls, PolledCells: mc.PolledCells,
		UpdateBytes: mc.UpdateBytes, PollBytes: mc.PollBytes, ReplyBytes: mc.ReplyBytes,
		NotFound:    mc.NotFound,
		LostUpdates: mc.LostUpdates, LostPolls: mc.LostPolls, LostReplies: mc.LostReplies,
		FallbackCalls: mc.FallbackCalls, Retransmissions: mc.Retransmissions,
		Acks: mc.Acks, AckBytes: mc.AckBytes,
		RePolls: mc.RePolls, DroppedCalls: mc.DroppedCalls,
		OutageDeferred: mc.OutageDeferred,
		DelayHist:      mc.DelayHist.Clone(),
		RecoveryHist:   mc.RecoveryHist.Clone(),
		ThresholdSlots: make(map[int]int64, len(mc.ThresholdSlots)),
		Events:         sp.SubEvents,
		PerTerminal:    make([]TerminalStats, width),
		costs:          cfg.Core.Costs,
	}
	for d, c := range mc.ThresholdSlots {
		m.ThresholdSlots[d] = c
	}
	for i := range mc.PerTerminal {
		tsc := &mc.PerTerminal[i]
		ts := &m.PerTerminal[i]
		ts.ID = sp.Lo + i
		ts.Updates, ts.Calls, ts.PolledCells = tsc.Updates, tsc.Calls, tsc.PolledCells
		ts.Delay.SetState(tsc.Delay)
		ts.Recovery.SetState(tsc.Recovery)
		ts.TotalCost = sp.TotalCost[i]
		ts.FinalThreshold = sp.FinalThreshold[i]
	}
	return m
}

// partMagic versions the partial wire format.
var partMagic = []byte("PCNPART1")

// EncodePartial serializes a partial to the same self-checking byte
// format checkpoints use: a magic/version header, the gob payload, and a
// CRC32 trailer over the payload. Gob encodes float64 values by bit
// pattern, so decoding on another machine reproduces every accumulator
// and cost rate exactly.
func EncodePartial(p *Partial) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(partMagic)
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("sim: encoding partial: %w", err)
	}
	payload := buf.Bytes()[len(partMagic):]
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
	buf.Write(tail[:])
	return buf.Bytes(), nil
}

// DecodePartial parses bytes produced by EncodePartial, rejecting
// unknown formats and corrupted payloads (checksum mismatch). The
// decoded structure is not yet validated; callers must run
// Partial.Validate before trusting it.
func DecodePartial(data []byte) (*Partial, error) {
	if len(data) < len(partMagic)+4 || !bytes.Equal(data[:len(partMagic)], partMagic) {
		return nil, fmt.Errorf("sim: not a partial (bad magic)")
	}
	payload := data[len(partMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("sim: partial checksum mismatch")
	}
	p := &Partial{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(p); err != nil {
		return nil, fmt.Errorf("sim: decoding partial: %w", err)
	}
	return p, nil
}
