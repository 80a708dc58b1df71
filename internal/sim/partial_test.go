package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/stats"
)

// partialConfig is a run that exercises every merged surface: faults and
// recovery (accumulators with real samples), dynamic re-optimization
// (diverging final thresholds), and the telemetry snapshot series.
func partialConfig(engine Engine) Config {
	cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 2)
	cfg.Terminals = 23
	cfg.Dynamic = true
	cfg.ReoptimizeEvery = 100
	cfg.Faults = FaultPlan{UpdateLoss: 0.2, PollLoss: 0.1, ReplyLoss: 0.05, UpdateRetries: 2}
	cfg.Telemetry.SnapshotEvery = 100
	cfg.Seed = 42
	cfg.Engine = engine
	return cfg
}

// TestPartialMergeMatchesSharded is the cross-machine determinism
// contract at the sim layer: running the shard partition in arbitrary
// contiguous slices via RunPartial — round-tripped through the wire
// encoding — and folding with MergePartials reproduces the single-node
// RunSharded Metrics bit for bit, for every engine and slicing.
func TestPartialMergeMatchesSharded(t *testing.T) {
	const slots, shards = 400, 5
	var cfgs []Config
	for _, engine := range []Engine{EngineCols, EngineDES} {
		// Fractional unit costs round in every per-terminal cost rate,
		// which the merge recomputes from the shipped counts.
		frac := partialConfig(engine)
		frac.Core.Costs = core.Costs{Update: 0.7, Poll: 0.3}
		cfgs = append(cfgs, partialConfig(engine), frac)
	}
	for _, cfg := range cfgs {
		engine := cfg.Engine
		want, err := RunSharded(cfg, slots, shards)
		if err != nil {
			t.Fatalf("%v: RunSharded: %v", engine, err)
		}
		for _, cuts := range [][]int{
			{0, 5},             // one worker holds everything
			{0, 1, 2, 3, 4, 5}, // one shard per worker
			{0, 2, 5},          // uneven two-worker split
			{0, 4, 5},
		} {
			var parts []*Partial
			for i := 0; i+1 < len(cuts); i++ {
				p, err := RunPartial(context.Background(), cfg, slots, shards, cuts[i], cuts[i+1])
				if err != nil {
					t.Fatalf("%v: RunPartial[%d,%d): %v", engine, cuts[i], cuts[i+1], err)
				}
				data, err := EncodePartial(p)
				if err != nil {
					t.Fatalf("%v: EncodePartial: %v", engine, err)
				}
				rt, err := DecodePartial(data)
				if err != nil {
					t.Fatalf("%v: DecodePartial: %v", engine, err)
				}
				if err := rt.Validate(); err != nil {
					t.Fatalf("%v: round-tripped partial invalid: %v", engine, err)
				}
				parts = append(parts, rt)
			}
			// Merge order must not matter; feed the slices reversed.
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			got, err := MergePartials(cfg, slots, shards, parts)
			if err != nil {
				t.Fatalf("%v: MergePartials(%v): %v", engine, cuts, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v: merged partials over cuts %v differ from single-node run", engine, cuts)
			}
		}
	}
}

func TestRunPartialRejectsBadSlices(t *testing.T) {
	cfg := partialConfig(EngineCols)
	for _, tc := range []struct{ shards, lo, hi int }{
		{0, 0, 1},   // shards must be explicit
		{100, 0, 1}, // more shards than terminals
		{4, -1, 2},
		{4, 2, 2},
		{4, 3, 5},
	} {
		if _, err := RunPartial(context.Background(), cfg, 10, tc.shards, tc.lo, tc.hi); err == nil {
			t.Errorf("RunPartial(shards=%d, [%d,%d)) accepted", tc.shards, tc.lo, tc.hi)
		}
	}
}

// TestMergePartialsMismatch pins the typed rejection: partials from a
// different run shape surface as *PartialMismatchError, never as a
// Metrics.Merge panic or a silently wrong report.
func TestMergePartialsMismatch(t *testing.T) {
	const slots, shards = 50, 2
	cfg := partialConfig(EngineCols)
	run := func(c Config, slots int64, shards, lo, hi int) *Partial {
		t.Helper()
		p, err := RunPartial(context.Background(), c, slots, shards, lo, hi)
		if err != nil {
			t.Fatalf("RunPartial: %v", err)
		}
		return p
	}
	a := run(cfg, slots, shards, 0, 1)
	b := run(cfg, slots, shards, 1, 2)

	otherSeed := cfg
	otherSeed.Seed = 7
	for _, tc := range []struct {
		name  string
		parts []*Partial
		field string
	}{
		{"wrong slots", []*Partial{a, run(cfg, slots+1, shards, 1, 2)}, "slots"},
		{"wrong shards", []*Partial{run(cfg, slots, 3, 0, 3)}, "shards"},
		{"wrong seed", []*Partial{a, run(otherSeed, slots, shards, 1, 2)}, "seed"},
		{"duplicate shard", []*Partial{a, a, b}, "coverage"},
		{"missing shard", []*Partial{a}, "coverage"},
	} {
		_, err := MergePartials(cfg, slots, shards, tc.parts)
		var mis *PartialMismatchError
		if !errors.As(err, &mis) {
			t.Errorf("%s: got %v, want *PartialMismatchError", tc.name, err)
			continue
		}
		if mis.Field != tc.field {
			t.Errorf("%s: mismatch field %q, want %q", tc.name, mis.Field, tc.field)
		}
	}
}

// TestDecodePartialRejectsCorruption drives the framed codec partials
// and checkpoints share through both formats: a foreign or truncated
// header, a damaged payload, and the other format's bytes must each fail
// with the format's own error text.
func TestDecodePartialRejectsCorruption(t *testing.T) {
	cfg := partialConfig(EngineCols)
	p, err := RunPartial(context.Background(), cfg, 20, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	if _, err := RunShardedOpts(context.Background(), cfg, 20, 2, RunOpts{
		CheckpointEvery: 10,
		CheckpointSink: func(cp *Checkpoint) {
			data, err := EncodeCheckpoint(cp)
			if err != nil {
				t.Error(err)
			}
			ckpt = data
		},
	}); err != nil {
		t.Fatal(err)
	}
	decodePartial := func(b []byte) error { _, err := DecodePartial(b); return err }
	decodeCheckpoint := func(b []byte) error { _, err := DecodeCheckpoint(b); return err }
	for _, f := range []struct {
		what         string
		data, other  []byte
		decode       func([]byte) error
		magic, check string
	}{
		{"partial", partial, ckpt, decodePartial, "sim: not a partial (bad magic)", "sim: partial checksum mismatch"},
		{"checkpoint", ckpt, partial, decodeCheckpoint, "sim: not a checkpoint (bad magic)", "sim: checkpoint checksum mismatch"},
	} {
		flipped := append([]byte(nil), f.data...)
		flipped[len(flipped)/2] ^= 0x40
		for _, tc := range []struct {
			name string
			data []byte
			want string
		}{
			{"bad magic", append([]byte("XXNOPE99"), f.data[8:]...), f.magic},
			{"flipped payload byte", flipped, f.check},
			{"shorter than header and trailer", f.data[:11], f.magic},
			{"other format", f.other, f.magic},
		} {
			if err := f.decode(tc.data); err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: got %v, want %q", f.what, tc.name, err, tc.want)
			}
		}
		if err := f.decode(f.data); err != nil {
			t.Errorf("%s: pristine bytes rejected: %v", f.what, err)
		}
	}
}

// TestPartialValidate drives the structural checks a hostile or damaged
// document must fail.
func TestPartialValidate(t *testing.T) {
	fresh := func() *Partial {
		p, err := RunPartial(context.Background(), partialConfig(EngineCols), 20, 3, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		break_ func(*Partial)
	}{
		{"zero slots", func(p *Partial) { p.Slots = 0 }},
		{"zero shards", func(p *Partial) { p.Shards = 0 }},
		{"inverted slice", func(p *Partial) { p.Lo, p.Hi = 2, 1 }},
		{"slice past shards", func(p *Partial) { p.Hi = 9 }},
		{"shard count drift", func(p *Partial) { p.Shard = p.Shard[:1] }},
		{"shard out of place", func(p *Partial) { p.Shard[0].Shard = 0 }},
		{"empty terminal range", func(p *Partial) { p.Shard[1].Hi = p.Shard[1].Lo }},
		{"terminal vector drift", func(p *Partial) { p.Shard[0].Metrics.PerTerminal = nil }},
		{"missing histogram", func(p *Partial) { p.Shard[0].Metrics.DelayHist = nil }},
	} {
		p := fresh()
		tc.break_(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	if err := fresh().Validate(); err != nil {
		t.Errorf("pristine partial rejected: %v", err)
	}
}

// TestMergePartialsMisshapenShards: a partial that passes Validate but
// whose histograms, moments or telemetry frames are shaped unlike the
// engine's — a worker on another version, or a hostile peer — is a typed
// mismatch, not a panic in the histogram or moments merge.
func TestMergePartialsMisshapenShards(t *testing.T) {
	const slots, shards = 250, 2
	cfg := partialConfig(EngineCols)
	for _, tc := range []struct {
		name   string
		break_ func(*Partial)
		field  string
	}{
		{"delay histogram buckets", func(p *Partial) {
			h := p.Shard[1].Metrics.DelayHist
			h.Counts = h.Counts[:3]
		}, "hist"},
		{"recovery histogram width", func(p *Partial) { p.Shard[0].Metrics.RecoveryHist.Width = 2 }, "hist"},
		{"recovery moments in slots", func(p *Partial) { p.Shard[1].Metrics.Recovery = stats.NewMoments(1) }, "moments"},
		{"frame delay moments in ticks", func(p *Partial) { p.Shard[0].Snapshots[1].Delay = stats.NewMoments(SlotTicks) }, "moments"},
		{"missing frame", func(p *Partial) { p.Shard[1].Snapshots = p.Shard[1].Snapshots[:1] }, "frames"},
		{"misaligned frame", func(p *Partial) { p.Shard[0].Snapshots[1].Slot++ }, "frames"},
	} {
		p, err := RunPartial(context.Background(), cfg, slots, shards, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		tc.break_(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: corruption caught by Validate already: %v", tc.name, err)
		}
		_, err = MergePartials(cfg, slots, shards, []*Partial{p})
		var mis *PartialMismatchError
		if !errors.As(err, &mis) || mis.Field != tc.field {
			t.Errorf("%s: got %v, want *PartialMismatchError on %q", tc.name, err, tc.field)
		}
	}
}

// FuzzMergePartials drives hostile partial payloads through the
// coordinator's whole intake: decode, Validate, MergePartials. Whatever
// arrives, the merge must return metrics or an error — never panic. The
// fuzzer mutates the columnar payload and the target re-frames it with
// a fresh checksum, so mutations reach the decoder and the merge instead
// of dying at the checksum.
func FuzzMergePartials(f *testing.F) {
	const slots, shards = 250, 2
	cfg := partialConfig(EngineCols)
	payload := func(p *Partial) []byte {
		data, err := EncodePartial(p)
		if err != nil {
			f.Fatal(err)
		}
		return data[len(partMagic) : len(data)-4]
	}
	for _, corrupt := range []func(*Partial){
		func(*Partial) {},
		func(p *Partial) { p.Shard[0].Metrics.DelayHist.Counts = p.Shard[0].Metrics.DelayHist.Counts[:3] },
		func(p *Partial) { p.Shard[1].Snapshots = p.Shard[1].Snapshots[:1] },
		func(p *Partial) { p.Shard[0].Snapshots[0].Recovery = stats.NewMoments(1) },
	} {
		p, err := RunPartial(context.Background(), cfg, slots, shards, 0, shards)
		if err != nil {
			f.Fatal(err)
		}
		corrupt(p)
		f.Add(payload(p))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := DecodePartial(framed(partMagic, body))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		m, err := MergePartials(cfg, slots, shards, []*Partial{p})
		if err == nil && m == nil {
			t.Fatal("MergePartials returned neither metrics nor an error")
		}
	})
}
