// Package stats provides the small measurement substrate used by the
// simulators: streaming mean/variance accumulators (Welford), normal
// confidence intervals, and a fast deterministic random number generator
// (splitmix64 seeding an xoshiro256**-style core) so simulation results
// are reproducible across runs and platforms.
package stats

import (
	"fmt"
	"math"
)

// Accumulator tracks count, mean, variance and extrema of a stream of
// observations using Welford's online algorithm. The zero value is ready
// to use.
type Accumulator struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x < a.min {
		a.min = x
	}
	if a.n == 1 || x > a.max {
		a.max = x
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Min returns the smallest observation (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI returns the half-width of the normal-approximation confidence
// interval of the mean at the given confidence level (e.g. 0.95). It uses
// the z quantile, appropriate for the large sample counts the simulators
// produce.
func (a *Accumulator) CI(level float64) float64 {
	return zQuantile(0.5+level/2) * a.StdErr()
}

// String formats "mean ± 95% CI (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", a.Mean(), a.CI(0.95), a.n)
}

// Merge folds another accumulator into a (parallel reduction).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	a.n = n
}

// zQuantile approximates the standard normal quantile function using the
// Beasley–Springer–Moro rational approximation (|error| < 3e-9 over the
// central region, ample for confidence intervals).
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v outside (0,1)", p))
	}
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		return y * (((a[3]*r+a[2])*r+a[1])*r + a[0]) /
			((((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1)
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		x = -x
	}
	return x
}
