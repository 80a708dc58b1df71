package stats

import (
	"math"
	"testing"
)

// scanEventGap is the scalar reference for the two-event scan in the
// slot sweep's draw order: first draw, and only on failure the second.
func scanEventGap(r *RNG, first, second uint64, limit int64) (int64, bool, bool) {
	for gap := int64(0); gap < limit; gap++ {
		if r.BernoulliT(first) {
			return gap, true, true
		}
		if r.BernoulliT(second) {
			return gap, false, true
		}
	}
	return limit, false, false
}

// checkGapCase asserts EventGap agrees with its scalar reference on
// result and — the positional contract — on the exact generator state
// left behind.
func checkGapCase(t *testing.T, seed, t1, t2 uint64, limit int64) {
	t.Helper()
	ref, got := NewRNG(seed), NewRNG(seed)
	wantGap, wantFirst, wantHit := scanEventGap(ref, t1, t2, limit)
	gap, first, hit := got.EventGap(t1, t2, limit)
	if gap != wantGap || first != wantFirst || hit != wantHit {
		t.Fatalf("EventGap(%d, %d, limit=%d) seed %d = (%d, %v, %v), scalar scan = (%d, %v, %v)",
			t1, t2, limit, seed, gap, first, hit, wantGap, wantFirst, wantHit)
	}
	if ref.s != got.s {
		t.Fatalf("EventGap(%d, %d, limit=%d) seed %d left state %v, scalar scan %v",
			t1, t2, limit, seed, got.s, ref.s)
	}
}

// TestGapSamplePositionalEquivalence is the property the columnar engine
// rests on: across 10k random (p, seed) cases the gap-sampled event slot
// and the post-scan generator state equal the slot-by-slot BernoulliT
// scan's, draw position for draw position.
func TestGapSamplePositionalEquivalence(t *testing.T) {
	meta := NewRNG(20260808)
	for i := 0; i < 10_000; i++ {
		seed := meta.Uint64()
		// Bias toward the simulator's regime (small p) but cover the
		// whole range: thresholds are uniform over [0, 2^53] on a third
		// of the cases, tiny on the rest.
		t1 := meta.Uint64() % (1<<53 + 1)
		t2 := meta.Uint64() % (1<<53 + 1)
		if i%3 != 0 {
			t1 = BernoulliThreshold(meta.Float64() * 0.1)
			t2 = BernoulliThreshold(meta.Float64() * 0.5)
		}
		limit := int64(meta.Intn(300))
		checkGapCase(t, seed, t1, t2, limit)
	}
}

// TestGapSampleEdgeThresholds pins the degenerate inputs: p=0 must
// consume one draw per slot without ever firing, p=1 must fire on the
// first slot, and a limit of zero or less must return (limit, false,
// false) verbatim having consumed nothing.
func TestGapSampleEdgeThresholds(t *testing.T) {
	for _, seed := range []uint64{0, 1, 99} {
		checkGapCase(t, seed, 0, 0, 64)
		checkGapCase(t, seed, 1<<53, 1<<53, 64)
		checkGapCase(t, seed, 0, 1<<53, 64)
		checkGapCase(t, seed, 1<<53, 0, 64)
		checkGapCase(t, seed, BernoulliThreshold(0.3), BernoulliThreshold(0.7), 0)
	}

	// Certain-fire thresholds: any draw consumed would be a hit.
	for _, limit := range []int64{0, -1, -300, math.MinInt64} {
		r := NewRNG(7)
		before := r.s
		if gap, first, hit := r.EventGap(1<<53, 1<<53, limit); gap != limit || first || hit {
			t.Fatalf("EventGap(1<<53, 1<<53, %d) = (%d, %v, %v), want (%d, false, false)",
				limit, gap, first, hit, limit)
		}
		if r.s != before {
			t.Fatalf("EventGap with limit %d consumed draws", limit)
		}
	}
}

// TestSeedSubStreamMatchesSubStream asserts the in-place seeder lands on
// the exact SubStream state for a spread of (seed, id) pairs, so flat
// generator columns and per-terminal heap generators are interchangeable.
func TestSeedSubStreamMatchesSubStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		for _, id := range []uint64{0, 1, 2, 1000, 1 << 40} {
			want := SubStream(seed, id)
			var got RNG
			got.SeedSubStream(seed, id)
			if got.s != want.s {
				t.Fatalf("SeedSubStream(%d, %d) state %v, SubStream %v", seed, id, got.s, want.s)
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("SeedSubStream(%d, %d) first draw %d, SubStream %d", seed, id, a, b)
			}
		}
	}
}

// FuzzGapSample fuzzes EventGap's positional-equivalence property over
// arbitrary seeds, thresholds and limits, negative limits included.
func FuzzGapSample(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), int64(16))
	f.Add(uint64(2), uint64(1)<<53, uint64(1)<<53, int64(1))
	f.Add(uint64(99), BernoulliThreshold(0.01), BernoulliThreshold(0.15), int64(256))
	f.Add(uint64(12345), BernoulliThreshold(0.5), BernoulliThreshold(0.5), int64(64))
	f.Fuzz(func(t *testing.T, seed, t1, t2 uint64, limit int64) {
		if t1 > 1<<53 {
			t1 %= 1<<53 + 1
		}
		if t2 > 1<<53 {
			t2 %= 1<<53 + 1
		}
		limit %= 4096
		checkGapCase(t, seed, t1, t2, limit)
	})
}

// eventGapSink keeps the benchmarked results live.
var eventGapSink int64

// BenchmarkEventGap reports the scan's cost per slot consumed: at the
// paper's Table point (move q=0.05, call c=0.01) with the cols engine's
// 256-slot stretch limit, and over event-free stretches (both
// thresholds 0), where every slot is a call draw plus a move draw.
func BenchmarkEventGap(b *testing.B) {
	for _, bc := range []struct {
		name       string
		call, move uint64
		limit      int64
	}{
		{"table", BernoulliThreshold(0.01), BernoulliThreshold(0.05), 256},
		{"event-free", 0, 0, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRNG(1)
			var slots int64
			for i := 0; i < b.N; i++ {
				gap, _, hit := r.EventGap(bc.call, bc.move, bc.limit)
				slots += gap
				if hit {
					slots++
				}
			}
			eventGapSink = slots
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
		})
	}
}
