package linalg

import (
	"math"
	"testing"
)

func TestNewCSRAndMulVec(t *testing.T) {
	// [1 2 0; 0 0 3]
	m, err := NewCSR(2, 3, []Entry{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 2, Val: 3},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	y := make([]float64, 2)
	if err := m.MulVec([]float64{1, 1, 1}, y); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("MulVec = %v, want [3 3]", y)
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m, err := NewCSR(1, 1, []Entry{
		{Row: 0, Col: 0, Val: 0.25},
		{Row: 0, Col: 0, Val: 0.75},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (duplicates summed)", m.NNZ())
	}
	if m.Val[0] != 1 {
		t.Errorf("summed value = %v, want 1", m.Val[0])
	}
}

func TestNewCSROutOfBounds(t *testing.T) {
	if _, err := NewCSR(2, 2, []Entry{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Fatal("expected out-of-bounds error, got nil")
	}
	if _, err := NewCSR(2, 2, []Entry{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Fatal("expected out-of-bounds error for negative col, got nil")
	}
}

func TestGainBiasTwoState(t *testing.T) {
	// P = [0 1; 1 0], r = [1, 0]: gain = 0.5.
	p, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	g, h, err := GainBias(p, []float64{1, 0}, 0)
	if err != nil {
		t.Fatalf("GainBias: %v", err)
	}
	if !almostEq(g, 0.5, 1e-12) {
		t.Errorf("gain = %v, want 0.5", g)
	}
	if h[0] != 0 {
		t.Errorf("bias at ref = %v, want 0", h[0])
	}
	// Check the evaluation equation g + h0 = r0 + h1.
	if !almostEq(g+h[0], 1+h[1], 1e-12) {
		t.Errorf("evaluation equation violated: %v != %v", g+h[0], 1+h[1])
	}
}

func TestGainBiasSelfLoop(t *testing.T) {
	p, err := NewCSR(1, 1, []Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	g, _, err := GainBias(p, []float64{0.37}, 0)
	if err != nil {
		t.Fatalf("GainBias: %v", err)
	}
	if !almostEq(g, 0.37, 1e-12) {
		t.Errorf("gain = %v, want 0.37", g)
	}
}

func TestRowSums(t *testing.T) {
	m, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 0, Val: 0.25}, {Row: 0, Col: 1, Val: 0.5},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	sums := m.RowSums()
	if math.Abs(sums[0]-0.75) > 1e-12 || sums[1] != 0 {
		t.Errorf("RowSums = %v, want [0.75 0]", sums)
	}
}
