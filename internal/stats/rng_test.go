package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(0) // seed 0 must still work (splitmix64 seeding)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(77)
	const n = 6
	counts := make([]int, n)
	const draws = 120000
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expected 20000 per bucket; allow ±3%.
		if c < draws/n*97/100 || c > draws/n*103/100 {
			t.Errorf("bucket %d: %d draws", i, c)
		}
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

// TestBernoulliThresholdMatchesBernoulli checks the exact-equivalence
// claim on BernoulliThreshold: for any p, BernoulliT(BernoulliThreshold(p))
// agrees with Bernoulli(p) on every draw of the same stream — including p
// values engineered to sit a single ulp away from a representable draw.
func TestBernoulliThresholdMatchesBernoulli(t *testing.T) {
	ps := []float64{0, 1, 0.5, 0.3, 0.05, 0.01, 1e-9, 1 - 1e-12,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1.0 / (1 << 53), math.Nextafter(1.0/(1<<53), 0),
		-0.2, 1.5, // clamped like Bernoulli's comparison treats them
	}
	for _, p := range ps {
		thr := BernoulliThreshold(p)
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < 4096; i++ {
			if got, want := a.BernoulliT(thr), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: BernoulliT=%v Bernoulli=%v", p, i, got, want)
			}
		}
	}
	// Adversarial: p exactly on each representable draw boundary must keep
	// the strict inequality (draw == p stays false).
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		u := r.Uint64() >> 11
		p := float64(u) / (1 << 53)
		thr := BernoulliThreshold(p)
		if (u < thr) != (float64(u)/(1<<53) < p) {
			t.Fatalf("boundary p=%v u=%d: threshold %d flips the strict compare", p, u, thr)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(11)
	a := parent.Split()
	b := parent.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split streams look correlated: %d/100 equal", equal)
	}
}
