package linalg

import "fmt"

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
