package chain

import (
	"fmt"
	"math"
)

// Alpha returns the recurrence coefficient of the paper's closed forms:
// α = 2 + 2c/q for the 1-D model (paper eq. 10) and α = 2 + 3c/q for the
// 2-D approximate model (paper eq. 50). In both cases α = (a+b+c)/b with
// the interior birth/death rates a = b of the model.
func Alpha(m Model, p Params) (float64, error) {
	if p.Q == 0 {
		return 0, fmt.Errorf("chain: α undefined for q=0")
	}
	switch m {
	case OneDim:
		return 2 + 2*p.C/p.Q, nil
	case TwoDimApprox:
		return 2 + 3*p.C/p.Q, nil
	case TwoDimExact:
		return 0, fmt.Errorf("chain: no closed form for the exact 2-D model (paper Section 4.1 solves it recursively)")
	default:
		return 0, fmt.Errorf("chain: unknown model %d", int(m))
	}
}

// Roots returns e1 and e2, the roots of x² − αx + 1 = 0 (paper eqs. 16–17).
// They satisfy e1·e2 = 1 and e1 + e2 = α; for α = 2 (no call arrivals) the
// roots coincide at 1.
func Roots(alpha float64) (e1, e2 float64) {
	disc := float64(alpha*alpha) - 4
	if disc < 0 {
		disc = 0
	}
	s := math.Sqrt(disc)
	return (alpha + s) / 2, (alpha - s) / 2
}

// chebS returns S_0..S_n of the paper's auxiliary sequence, defined by
// S_{-1} = 0, S_0 = 1, S_i = α·S_{i−1} − S_{i−2} (the recursive definition
// under paper eq. 11). In closed form S_i = (e1^{i+1} − e2^{i+1})/(e1 − e2),
// degenerating to S_i = i+1 when α = 2.
func chebS(alpha float64, n int) []float64 {
	s := make([]float64, n+1)
	s[0] = 1
	if n >= 1 {
		s[1] = alpha
	}
	for i := 2; i <= n; i++ {
		s[i] = float64(alpha*s[i-1]) - s[i-2]
	}
	return s
}

// chebSPow evaluates S_i directly from the root powers (paper's R_i
// expressions are differences of such powers). It is used in tests to check
// that the recursive and exponential forms of the closed solution agree.
func chebSPow(alpha float64, i int) float64 {
	e1, e2 := Roots(alpha)
	if e1 == e2 {
		return float64(i + 1)
	}
	return (math.Pow(e1, float64(i+1)) - math.Pow(e2, float64(i+1))) / (float64(e1) - float64(e2))
}

// StationaryClosedForm returns the steady-state probabilities p_{i,d} using
// the paper's closed-form solution (Sections 3.2 and 4.2). It applies to
// the 1-D model and the approximate 2-D model; the exact 2-D model has no
// closed form and must use Stationary.
//
// The paper expresses the solution through R_i = e1^{d−i} − e2^{d−i} and
// model-specific constants K_1..K_4 (eqs. 23–32 and 45–49), with explicit
// boundary cases for d ≤ 2 (eqs. 33–38 and 55–60). Algebraically the whole
// family collapses to
//
//	p_{i,d} ∝ S_{d−i}            for 1 ≤ i ≤ d
//	p_{0,d} ∝ (b/q)·S_d
//
// with S the Chebyshev-like sequence of chebS and b the interior death rate
// (q/2 in 1-D, q/3 in 2-D). This implementation uses that simplified form;
// tests verify it reproduces the paper's printed boundary equations exactly
// and matches the cut-balance solver for all d.
func StationaryClosedForm(m Model, p Params, d int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d < 0 {
		return nil, fmt.Errorf("chain: negative threshold %d", d)
	}
	if d == 0 || p.Q == 0 {
		pi := make([]float64, d+1)
		pi[0] = 1
		return pi, nil
	}
	alpha, err := Alpha(m, p)
	if err != nil {
		return nil, err
	}
	var ratio float64 // b / a_0 = b / q
	switch m {
	case OneDim:
		ratio = 0.5
	case TwoDimApprox:
		ratio = 1.0 / 3.0
	}
	s := chebS(alpha, d)
	pi := make([]float64, d+1)
	pi[0] = ratio * s[d]
	for i := 1; i <= d; i++ {
		pi[i] = s[d-i]
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	if math.IsInf(sum, 1) || math.IsNaN(sum) {
		return nil, fmt.Errorf("chain: closed form overflow at d=%d (α=%v); use Stationary", d, alpha)
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// boundary1D returns the paper's literal boundary-case formulas for the 1-D
// model, eqs. (33)–(38). Exported to tests only, to confirm the general
// closed form reproduces the printed equations digit for digit.
func boundary1D(p Params, d int) []float64 {
	q, c := p.Q, p.C
	switch d {
	case 0:
		return []float64{1}
	case 1:
		return []float64{
			(q + c) / (2*q + c),
			q / (2*q + c),
		}
	case 2:
		den := float64(9*q*q) + float64(12*q*c) + float64(4*c*c)
		return []float64{
			(2*c + q) / (2*c + float64(3*q)),
			4 * q * (c + q) / den,
			2 * q * q / den,
		}
	}
	panic("boundary1D: d > 2")
}

// boundary2DApprox returns the paper's literal boundary-case formulas for
// the approximate 2-D model, eqs. (55)–(60).
func boundary2DApprox(p Params, d int) []float64 {
	q, c := p.Q, p.C
	switch d {
	case 0:
		return []float64{1}
	case 1:
		return []float64{
			(2*q + float64(3*c)) / (float64(5*q) + float64(3*c)),
			3 * q / (float64(5*q) + float64(3*c)),
		}
	case 2:
		den := float64(4*q*q) + float64(7*q*c) + float64(3*c*c)
		return []float64{
			(float64(3*c) + q) / (float64(3*c) + float64(4*q)),
			q * (float64(3*c) + 2*q) / den,
			q * q / den,
		}
	}
	panic("boundary2DApprox: d > 2")
}
