package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative method fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("linalg: iteration limit reached before convergence")

// StationaryOptions configures the stationary-distribution power iteration.
type StationaryOptions struct {
	Tol     float64 // L1 stopping tolerance; default 1e-12
	MaxIter int     // default 200000
	Damping float64 // self-loop mixing in (0,1] to break periodicity; default 0.5
}

func (o *StationaryOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.5
	}
}

// Stationary computes the stationary distribution π of an irreducible
// row-stochastic matrix P via damped power iteration on πᵀ = πᵀP.
// The damping (π ← (1−τ)π + τ πP) leaves the fixed point unchanged while
// guaranteeing aperiodicity.
func Stationary(p *CSR, opts StationaryOptions) ([]float64, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("linalg: Stationary needs a square matrix, got %dx%d", p.Rows, p.Cols)
	}
	if !p.IsStochastic(1e-9) {
		return nil, errors.New("linalg: Stationary requires a row-stochastic matrix")
	}
	opts.defaults()
	n := p.Rows
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	tau := opts.Damping
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := p.MulVecT(pi, next); err != nil {
			return nil, err
		}
		var diff, sum float64
		for i := range next {
			next[i] = (1-tau)*pi[i] + tau*next[i]
			diff += math.Abs(next[i] - pi[i])
			sum += next[i]
		}
		// Renormalize to guard against drift.
		for i := range next {
			next[i] /= sum
		}
		pi, next = next, pi
		if diff < opts.Tol {
			return pi, nil
		}
	}
	return nil, ErrNoConvergence
}

// AbsorbingCycle solves the expected accumulated reward until absorption for
// a transient Markov chain: h = r + Q h where Q is the transient-to-transient
// transition matrix (substochastic) and r the expected one-step reward per
// transient state. Returns h (dense solve; intended for small chains).
func AbsorbingCycle(q *CSR, r []float64) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: AbsorbingCycle needs a square matrix, got %dx%d", q.Rows, q.Cols)
	}
	if len(r) != q.Rows {
		return nil, fmt.Errorf("linalg: AbsorbingCycle reward length %d != %d states", len(r), q.Rows)
	}
	n := q.Rows
	// Build I - Q densely.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for row := 0; row < n; row++ {
		for k := q.RowPtr[row]; k < q.RowPtr[row+1]; k++ {
			a.Add(row, int(q.ColIdx[k]), -q.Val[k])
		}
	}
	return SolveDense(a, r)
}

// GainBias solves the average-reward evaluation equations for an ergodic
// unichain Markov chain with transition matrix P and per-state expected
// reward r:
//
//	g + h(s) = r(s) + Σ_s' P(s,s') h(s'),   h(ref) = 0.
//
// It returns the gain g and bias vector h using a dense linear solve
// (intended for small chains; large chains should use the compiled
// kernel's iterative evaluation).
func GainBias(p *CSR, r []float64, ref int) (float64, []float64, error) {
	if p.Rows != p.Cols {
		return 0, nil, fmt.Errorf("linalg: GainBias needs a square matrix, got %dx%d", p.Rows, p.Cols)
	}
	n := p.Rows
	if len(r) != n {
		return 0, nil, fmt.Errorf("linalg: GainBias reward length %d != %d states", len(r), n)
	}
	if ref < 0 || ref >= n {
		return 0, nil, fmt.Errorf("linalg: GainBias reference state %d out of range [0,%d)", ref, n)
	}
	// Unknowns: [g, h_0, ..., h_{n-1}] with h_ref pinned to 0, so n+1
	// unknowns and n+1 equations (n evaluation equations + the pin).
	m := NewDense(n+1, n+1)
	b := make([]float64, n+1)
	for s := 0; s < n; s++ {
		m.Set(s, 0, 1)   // g
		m.Add(s, s+1, 1) // h(s)
		for k := p.RowPtr[s]; k < p.RowPtr[s+1]; k++ {
			m.Add(s, int(p.ColIdx[k])+1, -p.Val[k])
		}
		b[s] = r[s]
	}
	m.Set(n, ref+1, 1) // h(ref) = 0
	x, err := SolveDense(m, b)
	if err != nil {
		return 0, nil, err
	}
	return x[0], x[1 : n+1], nil
}
