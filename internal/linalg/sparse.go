package linalg

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64   // len Rows+1
	ColIdx     []int32   // len nnz
	Val        []float64 // len nnz
}

// Entry is a single (row, col, value) triple used to build sparse matrices.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewCSR builds a CSR matrix from unordered entries. Duplicate (row, col)
// pairs are summed.
func NewCSR(rows, cols int, entries []Entry) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of bounds for %dx%d matrix", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
	}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, int32(sorted[i].Col))
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = M x. y must have length Rows, x length Cols.
func (m *CSR) MulVec(x, y []float64) error {
	if len(x) != m.Cols || len(y) != m.Rows {
		return fmt.Errorf("linalg: MulVec dimension mismatch: matrix %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y))
	}
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
	return nil
}

// RowSums returns the vector of row sums; useful to validate stochasticity.
func (m *CSR) RowSums() []float64 {
	sums := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k]
		}
		sums[r] = s
	}
	return sums
}
