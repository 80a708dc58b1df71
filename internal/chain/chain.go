// Package chain implements the discrete-time Markov chain of Sections 3 and
// 4 of Akyildiz & Ho (SIGCOMM '95): the distance of a mobile terminal from
// its center cell under a distance-based location update scheme with
// threshold d.
//
// The chain has states 0..d (the ring index of the terminal). In each time
// slot the terminal either receives a call with probability c (resetting the
// state to 0, because paging re-centers the residing area), or moves to a
// uniformly random neighboring cell with probability q. Moving from ring i
// increases the distance with probability q·p+(i) and decreases it with
// probability q·p−(i); moving out of ring d triggers a location update,
// which also resets the state to 0.
//
// Three model variants are provided:
//
//   - OneDim: the 1-D line model, a_{0,1}=q, a_{i,i+1}=b_{i,i−1}=q/2
//     (paper eqs. 3–4). Closed forms: paper eqs. 9–38.
//   - TwoDimExact: the 2-D hexagonal model with the exact state-dependent
//     transition probabilities a_{i,i+1}=q(1/3+1/6i), b_{i,i−1}=q(1/3−1/6i)
//     (paper eqs. 41–42), solved recursively (paper Section 4.1).
//   - TwoDimApprox: the 2-D model with the distance-independent
//     approximation a=b=q/3 (paper eqs. 43–44), which admits closed forms
//     (paper eqs. 45–60) and powers the cheap "near-optimal" threshold.
//
// All variants are solved by a numerically stable O(d) cut-balance
// recurrence (Stationary); the paper's closed forms are implemented
// separately (StationaryClosedForm) and cross-checked in tests.
package chain

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
)

// Model selects the mobility model variant.
type Model int

const (
	// OneDim is the one-dimensional random walk (paper Section 3).
	OneDim Model = iota
	// TwoDimExact is the two-dimensional hexagonal random walk with exact
	// transition probabilities (paper Section 4.1).
	TwoDimExact
	// TwoDimApprox is the two-dimensional model with the approximate
	// distance-independent transition probabilities (paper Section 4.2).
	TwoDimApprox
)

// String returns a human-readable model name.
func (m Model) String() string {
	switch m {
	case OneDim:
		return "1-D"
	case TwoDimExact:
		return "2-D exact"
	case TwoDimApprox:
		return "2-D approx"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Grid returns the cell geometry underlying the model.
func (m Model) Grid() grid.Kind {
	if m == OneDim {
		return grid.OneDim
	}
	return grid.TwoDimHex
}

// Params holds the per-slot stochastic parameters of a terminal.
type Params struct {
	// Q is the probability that the terminal moves to a neighboring cell
	// during a time slot (paper: probability of movement q).
	Q float64
	// C is the probability that a call arrives for the terminal during a
	// time slot (paper: call arrival probability c).
	C float64
}

// Validate reports whether the parameters describe a proper chain. Movement
// and call arrival are disjoint events within a slot, so q + c must not
// exceed 1.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Q) || math.IsNaN(p.C):
		return errors.New("chain: NaN parameter")
	case p.Q < 0 || p.Q > 1:
		return fmt.Errorf("chain: move probability q=%v outside [0,1]", p.Q)
	case p.C < 0 || p.C > 1:
		return fmt.Errorf("chain: call probability c=%v outside [0,1]", p.C)
	case p.Q+p.C > 1+1e-12:
		return fmt.Errorf("chain: q+c=%v exceeds 1 (move and call are disjoint slot events)", p.Q+p.C)
	}
	return nil
}

// Up returns the transition probability a_{i,i+1}: the per-slot probability
// that the terminal's distance from its center cell increases from i to
// i+1. For i = d the same expression is the probability of crossing the
// update threshold (paper eqs. 3 and 41/43).
func (m Model) Up(p Params, i int) float64 {
	if i < 0 {
		panic(fmt.Sprintf("chain: negative state %d", i))
	}
	if i == 0 {
		return p.Q
	}
	switch m {
	case OneDim:
		return p.Q / 2
	case TwoDimExact:
		return p.Q * grid.TwoDimHex.UpProb(i)
	case TwoDimApprox:
		return p.Q / 3
	default:
		panic(fmt.Sprintf("chain: unknown model %d", int(m)))
	}
}

// Down returns the transition probability b_{i,i−1}: the per-slot
// probability that the distance decreases from i to i−1 (paper eqs. 4 and
// 42/44). Down(p, 0) is 0.
func (m Model) Down(p Params, i int) float64 {
	if i < 0 {
		panic(fmt.Sprintf("chain: negative state %d", i))
	}
	if i == 0 {
		return 0
	}
	switch m {
	case OneDim:
		return p.Q / 2
	case TwoDimExact:
		return p.Q * grid.TwoDimHex.DownProb(i)
	case TwoDimApprox:
		return p.Q / 3
	default:
		panic(fmt.Sprintf("chain: unknown model %d", int(m)))
	}
}

// Stationary returns the steady-state probabilities p_{i,d} for i = 0..d of
// the distance chain with update threshold d. It uses the cut-balance
// recurrence
//
//	p_i·a_i = p_{i+1}·b_{i+1} + c·Σ_{k>i} p_k + p_d·a_d ,
//
// obtained by balancing probability flow across the cut between states
// {0..i} and {i+1..d}: upward flow is a single birth transition, downward
// flow is one death transition plus every reset (call arrival from a state
// above the cut, or a location update out of state d). Solving backward
// from p_d := 1 and normalizing is exact for all three model variants and
// avoids the exponentials of the closed forms.
func Stationary(m Model, p Params, d int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d < 0 {
		return nil, fmt.Errorf("chain: negative threshold %d", d)
	}
	pi := make([]float64, d+1)
	if d == 0 || p.Q == 0 {
		// Single state, or a terminal that never moves: all mass at 0.
		pi[0] = 1
		return pi, nil
	}
	pi[d] = 1
	tail := pi[d] // Σ_{k>i} p_k for the current i
	resetFromD := pi[d] * m.Up(p, d)
	for i := d - 1; i >= 0; i-- {
		up := m.Up(p, i)
		// The explicit conversions keep every architecture from fusing
		// the products into multiply-adds (DESIGN §11).
		pi[i] = (float64(pi[i+1]*m.Down(p, i+1)) + float64(p.C*tail) + resetFromD) / up
		tail += pi[i]
		if pi[i] > 1e250 {
			// The unnormalized probabilities grow geometrically toward
			// state 0 (p_0/p_d ≈ e1^d); rescale to avoid overflow for
			// very large thresholds.
			f := pi[i]
			for k := i; k <= d; k++ {
				pi[k] /= f
			}
			tail /= f
			resetFromD /= f
		}
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// UpdateProb returns the per-slot probability that the terminal performs a
// location update under threshold d: p_{d,d}·a_{d,d+1}. The stationary
// vector pi must come from Stationary (or StationaryClosedForm) with the
// same model, parameters and threshold.
func UpdateProb(m Model, p Params, pi []float64) float64 {
	d := len(pi) - 1
	return pi[d] * m.Up(p, d)
}
