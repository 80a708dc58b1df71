package stats

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// exactMean is Σx / (n·unit) as an exact rational.
func exactMean(xs []int64, unit int64) *big.Rat {
	sum := new(big.Int)
	for _, x := range xs {
		sum.Add(sum, big.NewInt(x))
	}
	return new(big.Rat).SetFrac(sum, big.NewInt(int64(len(xs))*unit))
}

// exactVariance is the two-pass Σ(x − x̄)² / (n − 1), in reported units,
// as an exact rational.
func exactVariance(xs []int64, unit int64) *big.Rat {
	mean := exactMean(xs, unit)
	ss := new(big.Rat)
	for _, x := range xs {
		d := new(big.Rat).SetFrac(big.NewInt(x), big.NewInt(unit))
		d.Sub(d, mean)
		ss.Add(ss, d.Mul(d, d))
	}
	return ss.Quo(ss, big.NewRat(int64(len(xs)-1), 1))
}

// isRoundedSqrt reports whether y is a float64 nearest √v: v lies between
// the squares of the midpoints to y's two neighbours.
func isRoundedSqrt(y float64, v *big.Rat) bool {
	mid := func(a, b float64) *big.Rat {
		m := new(big.Rat).SetFloat64(a)
		m.Add(m, new(big.Rat).SetFloat64(b))
		m.Quo(m, big.NewRat(2, 1))
		return m.Mul(m, m)
	}
	lo := mid(math.Nextafter(y, 0), y)
	hi := mid(y, math.Nextafter(y, math.Inf(1)))
	return lo.Cmp(v) <= 0 && v.Cmp(hi) <= 0
}

// TestMomentsCorrectlyRounded holds Mean and StdDev to the float64
// nearest the exact mean and standard deviation of random integer
// streams, in units of 1 and of 2048 (recovery latency in ticks per
// slot) and a unit that is not a power of two.
func TestMomentsCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		unit := []int64{1, 2048, 3}[trial%3]
		xs := make([]int64, 2+rng.Intn(200))
		span := int64(1) << uint(1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.Int63n(span) - span/4
		}
		m := NewMoments(unit)
		for _, x := range xs {
			m.Add(x)
		}
		if want, _ := exactMean(xs, unit).Float64(); m.Mean() != want {
			t.Fatalf("trial %d: mean %v, want %v", trial, m.Mean(), want)
		}
		if v := exactVariance(xs, unit); !isRoundedSqrt(m.StdDev(), v) {
			t.Fatalf("trial %d: stddev %v is not the float64 nearest √%v", trial, m.StdDev(), v.FloatString(20))
		}
	}
	var empty Moments
	if empty.N() != 0 || empty.Mean() != 0 || empty.StdDev() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Errorf("empty moments not zero: %+v", empty)
	}
	one := NewMoments(2048)
	one.Add(3 * 1024)
	if one.Mean() != 1.5 || one.StdDev() != 0 || one.Min() != 1.5 || one.Max() != 1.5 {
		t.Errorf("single sample: mean %v stddev %v min %v max %v", one.Mean(), one.StdDev(), one.Min(), one.Max())
	}
}

// repeated builds, directly, the state of k samples all equal to x —
// streams far too long to feed through Add.
func repeated(unit, x, k int64) Moments {
	hi, lo := bits.Mul64(uint64(x*x), uint64(k))
	return Moments{unit: unit, n: k, sum: x * k, sqHi: hi, sqLo: lo, min: x, max: x}
}

// TestMomentsMergeAnyPartitionAndOrder: every partition of a stream,
// merged in every order, gives the state of feeding the stream through
// Add — including a Σx² past 2^64, built from recovery latencies near
// 256 slots of 2048 ticks over more than 2^32 samples.
func TestMomentsMergeAnyPartitionAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		xs := make([]int64, 1+rng.Intn(60))
		whole := NewMoments(2048)
		for i := range xs {
			xs[i] = rng.Int63n(256*2048) - 1000
			whole.Add(xs[i])
		}
		// Random contiguous-or-not partition into up to 5 parts.
		parts := make([]Moments, 1+rng.Intn(5))
		for i := range parts {
			parts[i] = NewMoments(2048)
		}
		for _, x := range xs {
			parts[rng.Intn(len(parts))].Add(x)
		}
		merged := NewMoments(2048)
		for _, i := range rng.Perm(len(parts)) {
			merged.Merge(&parts[i])
		}
		if merged != whole {
			t.Fatalf("trial %d: merged %+v, want %+v", trial, merged, whole)
		}
		// A tree-shaped reduction agrees too.
		for len(parts) > 1 {
			parts[0].Merge(&parts[len(parts)-1])
			parts = parts[:len(parts)-1]
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		}
		if parts[0] != whole {
			t.Fatalf("trial %d: tree merge %+v, want %+v", trial, parts[0], whole)
		}
	}

	const unit = 2048
	runs := []Moments{
		repeated(unit, 256*unit-1, 1<<31+7),
		repeated(unit, 255*unit, 1<<31-5),
		repeated(unit, 256*unit, 1<<30),
	}
	var states []Moments
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}} {
		m := NewMoments(unit)
		for _, i := range order {
			m.Merge(&runs[i])
		}
		states = append(states, m)
	}
	for _, m := range states[1:] {
		if m != states[0] {
			t.Fatalf("merge order changed the state: %+v vs %+v", m, states[0])
		}
	}
	m := states[0]
	if m.N() <= 1<<32 || m.sqHi == 0 {
		t.Fatalf("n = %d, Σx² high word %d: want more than 2^32 samples and Σx² past 2^64", m.N(), m.sqHi)
	}
	// Exact mean and variance from the three (value, count) runs.
	n, sum, sumSq := new(big.Int), new(big.Int), new(big.Int)
	for _, b := range runs {
		x, k := new(big.Int).SetInt64(b.min), new(big.Int).SetInt64(b.n)
		n.Add(n, k)
		sum.Add(sum, new(big.Int).Mul(x, k))
		sumSq.Add(sumSq, new(big.Int).Mul(new(big.Int).Mul(x, x), k))
	}
	if sumSq.Cmp(m.sumSq()) != 0 {
		t.Fatalf("Σx² = %v, want %v", m.sumSq(), sumSq)
	}
	mean := new(big.Rat).SetFrac(sum, new(big.Int).Mul(n, new(big.Int).SetInt64(unit)))
	if want, _ := mean.Float64(); m.Mean() != want {
		t.Errorf("mean %v, want %v", m.Mean(), want)
	}
	d := new(big.Int).Sub(new(big.Int).Mul(n, sumSq), new(big.Int).Mul(sum, sum))
	q := new(big.Int).Mul(n, new(big.Int).Sub(n, new(big.Int).SetInt64(1)))
	q.Mul(q, new(big.Int).SetInt64(unit*unit))
	if v := new(big.Rat).SetFrac(d, q); !isRoundedSqrt(m.StdDev(), v) {
		t.Errorf("stddev %v is not the float64 nearest √%v", m.StdDev(), v.FloatString(20))
	}
	if m.Min() != 255 || m.Max() != 256 {
		t.Errorf("extrema %v..%v, want 255..256", m.Min(), m.Max())
	}
}

func TestMomentsMergeUnitMismatchPanics(t *testing.T) {
	a, b := NewMoments(1), NewMoments(2048)
	a.Add(1)
	b.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("merging moments in different units accepted")
		}
	}()
	a.Merge(&b)
}

func TestMomentsBinaryRoundTrip(t *testing.T) {
	m := repeated(2048, -5, 1<<40)
	m.Add(1 << 50)
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Moments
	if err := got.UnmarshalBinary(data); err != nil || got != m {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, m)
	}
	bad := append([]byte(nil), data...)
	clear(bad[:8]) // unit 0
	if got.UnmarshalBinary(bad) == nil {
		t.Error("unit 0 accepted")
	}
	bad = append([]byte(nil), data...)
	bad[15] = 0x80 // negative count
	if got.UnmarshalBinary(bad) == nil {
		t.Error("negative count accepted")
	}
	if got.UnmarshalBinary(data[:55]) == nil {
		t.Error("short encoding accepted")
	}
}
