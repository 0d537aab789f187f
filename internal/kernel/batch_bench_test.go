package kernel

import (
	"context"
	"testing"
)

func benchRing(b *testing.B, n int) *Compiled {
	b.Helper()
	c, err := Compile(ringSource{n: n}, 0.25, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkSoloSolve(b *testing.B) {
	c := benchRing(b, 20000)
	c.SetWorkers(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MeanPayoffCtx(context.Background(), 0.3, Options{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatch8SameLane(b *testing.B) {
	c := benchRing(b, 20000)
	lanes := make([]LaneParams, 8)
	betas := make([]float64, 8)
	tols := make([]float64, 8)
	for i := range lanes {
		lanes[i] = LaneParams{P: 0.25, Gamma: 0.5}
		betas[i] = 0.3
		tols[i] = 1e-6
	}
	bt := newBatch(b, c, lanes)
	bt.SetWorkers(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveLanes(context.Background(), bt, betas, tols, BatchRunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
