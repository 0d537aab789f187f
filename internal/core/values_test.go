package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/kernel"
)

// TestCompiledValuesRoundTrip: Values returns an independent copy of the
// converged vector, and installing it on a fresh instance warm-starts the
// same solve down to a handful of sweeps with an identical certified gain.
func TestCompiledValuesRoundTrip(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	a := mustCompile(t, p)
	cold, err := a.MeanPayoffCtx(context.Background(), 0.35, kernel.Options{Tol: 1e-8})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	vals := a.Values()
	if len(vals) != a.NumStates() {
		t.Fatalf("Values() has %d entries, model %d states", len(vals), a.NumStates())
	}
	// Mutating the returned slice must not reach into the solver.
	saved := vals[0]
	vals[0] = 1e9
	if got := a.Values()[0]; got != saved {
		t.Fatalf("Values() aliases solver state: %v became %v", saved, got)
	}
	vals[0] = saved

	b := mustCompile(t, p)
	if err := b.SetValues(vals); err != nil {
		t.Fatalf("SetValues: %v", err)
	}
	warm, err := b.MeanPayoffCtx(context.Background(), 0.35, kernel.Options{Tol: 1e-8, KeepValues: true})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Iters > cold.Iters/2 {
		t.Errorf("warm solve took %d sweeps, cold %d; transplanted vector ineffective", warm.Iters, cold.Iters)
	}
	if math.Abs(warm.Gain-cold.Gain) > 1e-7 {
		t.Errorf("warm gain %v != cold gain %v", warm.Gain, cold.Gain)
	}
}

func TestCompiledSetValuesWrongLength(t *testing.T) {
	c := mustCompile(t, Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 2})
	if err := c.SetValues(make([]float64, 3)); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

// TestSignOnlySurvivesAdversarialSeed: a sign-only solve seeded with a
// wildly wrong vector must still certify the same (true) sign as a cold
// solve — the property that makes warm-started binary searches bitwise
// reproducible.
func TestSignOnlySurvivesAdversarialSeed(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	for _, beta := range []float64{0.2, 0.35, 0.5} {
		a := mustCompile(t, p)
		cold, err := a.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-6, SignOnly: true})
		if err != nil {
			t.Fatalf("beta=%v cold: %v", beta, err)
		}
		bad := make([]float64, a.NumStates())
		for i := range bad {
			bad[i] = float64((i%17)-8) * 100
		}
		b := mustCompile(t, p)
		if err := b.SetValues(bad); err != nil {
			t.Fatal(err)
		}
		seeded, err := b.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-6, SignOnly: true, KeepValues: true})
		if err != nil {
			t.Fatalf("beta=%v seeded: %v", beta, err)
		}
		if !cold.SignKnown() || !seeded.SignKnown() {
			t.Fatalf("beta=%v: sign not certified (cold [%v,%v], seeded [%v,%v])",
				beta, cold.Lo, cold.Hi, seeded.Lo, seeded.Hi)
		}
		if (cold.Gain > 0) != (seeded.Gain > 0) {
			t.Errorf("beta=%v: cold sign %v, seeded sign %v", beta, cold.Gain > 0, seeded.Gain > 0)
		}
	}
}
