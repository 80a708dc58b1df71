package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Moments is an exact summary of a stream of integer samples: the count,
// Σx, Σx² (a 128-bit integer, via math/bits) and the extrema. Every
// field is an integer, so Merge is plain addition: it is associative and
// commutative, and any partition of a stream merged in any order yields
// the same state — the property that lets sharded runs combine their
// totals without a reduction order. Mean and StdDev are computed from
// the exact sums and rounded once, to the nearest float64.
//
// Samples are counted in a fixed unit: Mean, StdDev, Min and Max report
// them divided by Unit (set by NewMoments; the zero value's unit is 1).
// A latency measured in scheduler ticks but reported in slots is kept
// exact this way.
type Moments struct {
	unit       int64 // 0 for a unit of 1, so the zero value is canonical
	n, sum     int64
	sqHi, sqLo uint64
	min, max   int64
}

// NewMoments returns an empty summary whose samples are counted in
// 1/unit of the reported unit. It panics if unit < 1.
func NewMoments(unit int64) Moments {
	if unit < 1 {
		panic(fmt.Sprintf("stats: moments unit %d < 1", unit))
	}
	return Moments{unit: canonicalUnit(unit)}
}

func canonicalUnit(unit int64) int64 {
	if unit == 1 {
		return 0
	}
	return unit
}

// Unit returns the number of sample units per reported unit.
func (a *Moments) Unit() int64 { return max(a.unit, 1) }

// Add records one sample, in sample units. Σx must stay within int64;
// Σx² cannot overflow before the count does.
func (a *Moments) Add(x int64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
	ux := uint64(x)
	if x < 0 {
		ux = -ux
	}
	a.addSq(bits.Mul64(ux, ux))
}

func (a *Moments) addSq(hi, lo uint64) {
	var carry uint64
	a.sqLo, carry = bits.Add64(a.sqLo, lo, 0)
	a.sqHi, _ = bits.Add64(a.sqHi, hi, carry)
}

// Merge folds b into a. Both must count samples in the same unit, unless
// one of them is empty.
func (a *Moments) Merge(b *Moments) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if a.Unit() != b.Unit() {
		panic(fmt.Sprintf("stats: merging moments in units %d and %d", a.Unit(), b.Unit()))
	}
	a.n += b.n
	a.sum += b.sum
	a.addSq(b.sqHi, b.sqLo)
	a.min = min(a.min, b.min)
	a.max = max(a.max, b.max)
}

// N returns the number of samples.
func (a *Moments) N() int64 { return a.n }

// Min returns the smallest sample in reported units (0 when empty).
func (a *Moments) Min() float64 { return float64(a.min) / float64(a.Unit()) }

// Max returns the largest sample in reported units (0 when empty).
func (a *Moments) Max() float64 { return float64(a.max) / float64(a.Unit()) }

// Mean returns Σx / (n·unit) rounded to the nearest float64 (0 when
// empty).
func (a *Moments) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	f, _ := new(big.Rat).SetFrac(big.NewInt(a.sum), a.bigN(a.Unit())).Float64()
	return f
}

// StdDev returns the sample standard deviation in reported units,
// √((n·Σx² − (Σx)²) / (n·(n−1)·unit²)) rounded to the nearest float64
// (0 with fewer than two samples).
func (a *Moments) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	d := new(big.Int).Mul(big.NewInt(a.n), a.sumSq())
	s := big.NewInt(a.sum)
	d.Sub(d, s.Mul(s, s))
	if d.Sign() <= 0 {
		// Equal samples; a negative value is a state no stream produces.
		return math.Sqrt(float64(d.Sign()))
	}
	u := a.Unit()
	q := a.bigN(a.n - 1)
	q.Mul(q, new(big.Int).Mul(big.NewInt(u), big.NewInt(u)))
	return roundedSqrt(new(big.Rat).SetFrac(d, q))
}

// sumSq returns Σx².
func (a *Moments) sumSq() *big.Int {
	sq := new(big.Int).SetUint64(a.sqHi)
	return sq.Lsh(sq, 64).Or(sq, new(big.Int).SetUint64(a.sqLo))
}

// bigN returns n·k.
func (a *Moments) bigN(k int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(a.n), big.NewInt(k))
}

// roundedSqrt returns the float64 nearest √v (ties to even) for v > 0.
// math.Sqrt of the rounded v lands within an ulp of it; the loop steps
// to the neighbour whenever √v lies past the midpoint between them,
// comparing squares exactly.
func roundedSqrt(v *big.Rat) float64 {
	f, _ := v.Float64()
	y := math.Sqrt(f)
	odd := func(x float64) bool { return math.Float64bits(x)&1 == 1 }
	for {
		lo, hi := math.Nextafter(y, 0), math.Nextafter(y, math.Inf(1))
		switch below, above := cmpMidSq(lo, y, v), cmpMidSq(y, hi, v); {
		case below > 0 || below == 0 && odd(y):
			y = lo
		case above < 0 || above == 0 && odd(y):
			y = hi
		default:
			return y
		}
	}
}

// cmpMidSq compares ((x+y)/2)² with v.
func cmpMidSq(x, y float64, v *big.Rat) int {
	m := new(big.Rat).SetFloat64(x)
	m.Add(m, new(big.Rat).SetFloat64(y))
	m.Mul(m, m)
	return m.Quo(m, big.NewRat(4, 1)).Cmp(v)
}

// MomentsBinaryLen is the length of the MarshalBinary form.
const MomentsBinaryLen = 7 * 8

// MarshalBinary encodes the exact state as seven little-endian 64-bit
// words: unit, n, Σx, Σx² (high, low), min, max. The checkpoint and
// partial codecs write moments in this form.
func (a Moments) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, MomentsBinaryLen)
	for _, w := range [...]uint64{uint64(a.Unit()), uint64(a.n), uint64(a.sum), a.sqHi, a.sqLo, uint64(a.min), uint64(a.max)} {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary restores a state written by MarshalBinary, rejecting a
// wrong length, a unit below 1 or a negative count.
func (a *Moments) UnmarshalBinary(data []byte) error {
	if len(data) != MomentsBinaryLen {
		return fmt.Errorf("stats: moments encoding of %d bytes, want %d", len(data), MomentsBinaryLen)
	}
	var w [7]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if int64(w[0]) < 1 || int64(w[1]) < 0 {
		return errors.New("stats: moments with a unit below 1 or a negative count")
	}
	*a = Moments{unit: canonicalUnit(int64(w[0])), n: int64(w[1]), sum: int64(w[2]), sqHi: w[3], sqLo: w[4],
		min: int64(w[5]), max: int64(w[6])}
	return nil
}
