package stats

import (
	"math"
	"testing"
)

func TestSubStreamDeterministic(t *testing.T) {
	a := SubStream(42, 7)
	b := SubStream(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, id) diverged at draw %d", i)
		}
	}
}

func TestSubStreamIndependentOfAllocationOrder(t *testing.T) {
	// Drawing stream 5 first and stream 2 second (or never drawing the
	// streams between them) must not change either stream — the property
	// Split lacks and sharded simulations need.
	five := SubStream(9, 5).Uint64()
	two := SubStream(9, 2).Uint64()
	if SubStream(9, 5).Uint64() != five || SubStream(9, 2).Uint64() != two {
		t.Fatal("stream value depends on allocation order")
	}
}

func TestSubStreamDistinctStreams(t *testing.T) {
	// Adjacent ids and adjacent seeds must give distinct streams; compare a
	// prefix of draws, not just the first value.
	prefix := func(r *RNG) [8]uint64 {
		var p [8]uint64
		for i := range p {
			p[i] = r.Uint64()
		}
		return p
	}
	base := prefix(SubStream(1, 0))
	for id := uint64(1); id < 100; id++ {
		if prefix(SubStream(1, id)) == base {
			t.Fatalf("stream id %d equals stream 0", id)
		}
	}
	if prefix(SubStream(2, 0)) == base {
		t.Fatal("seed 2 stream equals seed 1 stream")
	}
}

func TestSubStreamUniformity(t *testing.T) {
	// Pool draws across many streams of one seed: the ensemble should be
	// uniform, catching gross inter-stream correlation.
	const n = 200 * 500
	var sum, sumSq float64
	for id := uint64(0); id < 200; id++ {
		r := SubStream(3, id)
		for i := 0; i < 500; i++ {
			x := r.Float64()
			sum += x
			sumSq += x * x
		}
	}
	mean := sum / n
	variance := (sumSq - sum*mean) / (n - 1)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("ensemble mean %v, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("ensemble variance %v, want ≈ 1/12", variance)
	}
}

// TestSubStreamInterleavingInvariance pins the contract the columnar
// engine rests on: a stream's draw sequence depends only on (seed, id),
// never on how draws on sibling streams interleave with it. The columnar
// engine iterates terminals in a completely different order than the
// event-driven engine, so any cross-stream coupling would break their
// bit-identity.
func TestSubStreamInterleavingInvariance(t *testing.T) {
	const seed, id = 9, 5
	want := make([]uint64, 64)
	r := SubStream(seed, id)
	for i := range want {
		want[i] = r.Uint64()
	}

	// Replay the same stream one draw at a time, firing bursts of mixed
	// draw kinds on neighbours and far-away siblings between draws.
	replay := SubStream(seed, id)
	siblings := []*RNG{
		SubStream(seed, id-1),
		SubStream(seed, id+1),
		SubStream(seed, 1<<40),
	}
	for i := range want {
		for j, s := range siblings {
			for k := 0; k <= (i+j)%3; k++ {
				switch k % 3 {
				case 0:
					s.Uint64()
				case 1:
					s.Float64()
				case 2:
					s.Intn(6)
				}
			}
		}
		if got := replay.Uint64(); got != want[i] {
			t.Fatalf("draw %d = %x under interleaving, want %x", i, got, want[i])
		}
	}
}

func TestSubStreamMatchesSplitmixBlocks(t *testing.T) {
	// The documented construction: stream id's state words are the four
	// splitmix64 outputs at positions 4·id+1 … 4·id+4 of the sequence
	// rooted at mix64(seed). Verify against a direct evaluation so the
	// stream layout (and therefore cross-version reproducibility) is
	// locked in by test.
	const seed, id = 77, 13
	base := mix64(seed)
	var want [4]uint64
	for i := range want {
		want[i] = mix64(base + (4*id+uint64(i)+1)*splitmixGamma)
	}
	got := SubStream(seed, id)
	if got.s != want {
		t.Fatalf("state %x, want %x", got.s, want)
	}
}
