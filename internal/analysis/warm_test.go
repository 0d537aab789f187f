package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
)

func compileFor(t *testing.T, p core.Params) *core.Compiled {
	t.Helper()
	c, err := core.Compile(p)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	return c
}

// TestSkipStrategyMatchesFullBound: bound-only mode returns the same ERRev
// bracket as the full analysis, with no strategy attached, and that bracket
// holds against exact policy iteration.
func TestSkipStrategyMatchesFullBound(t *testing.T) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}

	full, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	bound, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3, SkipStrategy: true})
	if err != nil {
		t.Fatalf("bound-only: %v", err)
	}
	if math.Float64bits(bound.ERRev) != math.Float64bits(full.ERRev) ||
		math.Float64bits(bound.BetaUp) != math.Float64bits(full.BetaUp) {
		t.Errorf("bound-only bracket [%v, %v] != full [%v, %v]",
			bound.ERRev, bound.BetaUp, full.ERRev, full.BetaUp)
	}
	if bound.Strategy != nil || !math.IsNaN(bound.StrategyERRev) {
		t.Errorf("bound-only result carries a strategy: %d states, ERRev %v",
			len(bound.Strategy), bound.StrategyERRev)
	}
	if bound.Sweeps >= full.Sweeps {
		t.Errorf("bound-only used %d sweeps, full %d; skipping the final solve should save sweeps",
			bound.Sweeps, full.Sweeps)
	}

	// The bracket is certified against the exact reference: MP*_β by
	// policy iteration on the generic model is ≥ 0 at the lower end and
	// ≤ 0 at the upper end.
	if g := exactGain(t, params, bound.ERRev); g < -1e-9 {
		t.Errorf("exact MP* at the lower end %v is %v, want >= 0", bound.ERRev, g)
	}
	if g := exactGain(t, params, bound.BetaUp); g > 1e-9 {
		t.Errorf("exact MP* at the upper end %v is %v, want <= 0", bound.BetaUp, g)
	}
}

// TestWarmSeedBitwiseDeterminism is the warm-start half of the service
// determinism contract: seeding the binary search with the converged value
// vector of a *different* p must leave the certified bracket and the
// iteration trajectory bitwise unchanged — only the sweep count may move.
func TestWarmSeedBitwiseDeterminism(t *testing.T) {
	base := core.Params{P: 0.25, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 3}

	// Solve a neighbor point and capture its value vector as the seed.
	neighbor := compileFor(t, base)
	if _, err := Analyze(t.Context(), neighbor, Options{Epsilon: 1e-3, SkipStrategy: true}); err != nil {
		t.Fatalf("neighbor: %v", err)
	}
	seed := neighbor.Values()

	target := base
	target.P = 0.3
	cold, err := Analyze(t.Context(), compileFor(t, target), Options{Epsilon: 1e-3, SkipStrategy: true})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := Analyze(t.Context(), compileFor(t, target), Options{
		Epsilon: 1e-3, SkipStrategy: true, InitialValues: seed,
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if math.Float64bits(warm.ERRev) != math.Float64bits(cold.ERRev) {
		t.Errorf("warm ERRev %v != cold %v", warm.ERRev, cold.ERRev)
	}
	if math.Float64bits(warm.BetaUp) != math.Float64bits(cold.BetaUp) {
		t.Errorf("warm BetaUp %v != cold %v", warm.BetaUp, cold.BetaUp)
	}
	if warm.Iterations != cold.Iterations {
		t.Errorf("warm took %d binary-search steps, cold %d; the trajectory must not depend on the seed",
			warm.Iterations, cold.Iterations)
	}
	t.Logf("sweeps: warm %d vs cold %d", warm.Sweeps, cold.Sweeps)
}

// TestWarmSeedWrongLengthRejected: a seed for a different structure errors
// out instead of corrupting the solve.
func TestWarmSeedWrongLengthRejected(t *testing.T) {
	c := compileFor(t, core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	_, err := Analyze(t.Context(), c, Options{Epsilon: 1e-2, InitialValues: []float64{1, 2, 3}})
	if err == nil {
		t.Fatal("mismatched warm-start vector accepted")
	}
}
