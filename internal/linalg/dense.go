// Package linalg provides the small dense and sparse linear-algebra
// routines needed by the Markov chain analyses and the exact MDP oracle:
// LU factorization with partial pivoting, CSR sparse matrices, and the
// gain/bias evaluation equations of a unichain chain.
//
// The package is intentionally minimal and dependency-free; it is not a
// general-purpose linear-algebra library. All matrices are row-major.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zero Rows-by-Cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorization with partial pivoting of a square
// matrix. The input is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: FactorLU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in column col.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if ab := math.Abs(lu.At(r, col)); ab > maxAbs {
				maxAbs, p = ab, r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != col {
			rowP := lu.Data[p*n : (p+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for j := 0; j < n; j++ {
				rowP[j], rowC[j] = rowC[j], rowP[j]
			}
			piv[p], piv[col] = piv[col], piv[p]
			sign = -sign
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivot
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR := lu.Data[r*n : (r+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for j := col + 1; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU.Solve dimension mismatch: matrix %d, rhs %d", n, len(b))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveDense solves A x = b for a square dense A.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
