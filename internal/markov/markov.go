// Package markov provides generic finite discrete-time Markov chain (DTMC)
// utilities: transition-matrix construction and validation, stationary
// distributions via direct linear solution (Gaussian elimination with
// partial pivoting) and via power iteration.
//
// The location-management model of the paper is a small structured chain
// with its own O(d) solver in package chain. This package holds the dense
// cross-check of that solver and of the paper's closed forms
// (DistanceChain), and the cell-level chain of the walk (CellWalk), which
// is exact on the hexagonal grid where the paper's ring-averaged distance
// chain is not.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Chain is a finite DTMC described by its one-step transition matrix:
// P[i][j] is the probability of moving from state i to state j in one step.
type Chain struct {
	p [][]float64
}

// New validates rows (non-negative entries, each summing to 1 within tol)
// and returns the chain. The matrix is used directly, not copied.
func New(p [][]float64) (*Chain, error) {
	n := len(p)
	if n == 0 {
		return nil, errors.New("markov: empty transition matrix")
	}
	const tol = 1e-9
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, v := range row {
			if math.IsNaN(v) || v < -tol {
				return nil, fmt.Errorf("markov: P[%d][%d] = %v invalid", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return nil, fmt.Errorf("markov: row %d sums to %v, want 1", i, sum)
		}
	}
	return &Chain{p: p}, nil
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.p) }

// At returns P[i][j].
func (c *Chain) At(i, j int) float64 { return c.p[i][j] }

// Stationary solves π = πP, Σπ = 1 directly by Gaussian elimination on the
// system (Pᵀ − I)π = 0 with one equation replaced by the normalization
// constraint. It requires the chain to have a unique stationary
// distribution (a single recurrent class); otherwise the linear system is
// singular and an error is returned.
func (c *Chain) Stationary() ([]float64, error) {
	n := len(c.p)
	// Build A = Pᵀ − I, replace last row with all-ones (normalization).
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.p[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1

	pi, err := solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	// Clamp tiny negative round-off and renormalize.
	sum := 0.0
	for i, v := range pi {
		if v < 0 {
			if v < -1e-8 {
				return nil, fmt.Errorf("markov: stationary solution has negative component π_%d = %v", i, v)
			}
			pi[i] = 0
		}
		sum += pi[i]
	}
	if sum <= 0 {
		return nil, errors.New("markov: stationary solution sums to zero")
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// PowerIteration approximates the stationary distribution by repeated
// multiplication π ← πP from the uniform distribution, stopping when the
// L1 change falls below tol or after maxIter sweeps. For periodic chains it
// averages consecutive iterates (Cesàro damping) to ensure convergence.
func (c *Chain) PowerIteration(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		return nil, errors.New("markov: tolerance must be positive")
	}
	if maxIter <= 0 {
		return nil, errors.New("markov: maxIter must be positive")
	}
	n := len(c.p)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			pi := cur[i]
			if pi == 0 {
				continue
			}
			row := c.p[i]
			for j, v := range row {
				next[j] += pi * v
			}
		}
		// Cesàro damping: next ← (next + cur)/2.
		diff := 0.0
		for j := range next {
			next[j] = 0.5 * (next[j] + cur[j])
			diff += math.Abs(next[j] - cur[j])
		}
		cur, next = next, cur
		if diff < tol {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("markov: power iteration did not converge in %d sweeps", maxIter)
}

// solve performs Gaussian elimination with partial pivoting on a·x = b,
// destroying a and b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-13 {
			return nil, errors.New("singular linear system (no unique stationary distribution)")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[i][k] * x[k]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}
