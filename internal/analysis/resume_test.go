package analysis

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
)

// equalResults asserts bitwise equality of everything Algorithm 1 certifies:
// the ERRev bracket, the search counters, and the extracted strategy.
func equalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if math.Float64bits(want.ERRev) != math.Float64bits(got.ERRev) {
		t.Errorf("%s: ERRev %v != %v", label, got.ERRev, want.ERRev)
	}
	if math.Float64bits(want.BetaLow) != math.Float64bits(got.BetaLow) ||
		math.Float64bits(want.BetaUp) != math.Float64bits(got.BetaUp) {
		t.Errorf("%s: bracket [%v, %v] != [%v, %v]", label, got.BetaLow, got.BetaUp, want.BetaLow, want.BetaUp)
	}
	if math.Float64bits(want.StrategyERRev) != math.Float64bits(got.StrategyERRev) {
		t.Errorf("%s: StrategyERRev %v != %v", label, got.StrategyERRev, want.StrategyERRev)
	}
	if want.Iterations != got.Iterations || want.Sweeps != got.Sweeps {
		t.Errorf("%s: search (%d iters, %d sweeps) != (%d iters, %d sweeps)",
			label, got.Iterations, got.Sweeps, want.Iterations, want.Sweeps)
	}
	if len(want.Strategy) != len(got.Strategy) {
		t.Fatalf("%s: strategy lengths %d != %d", label, len(got.Strategy), len(want.Strategy))
	}
	for s := range want.Strategy {
		if want.Strategy[s] != got.Strategy[s] {
			t.Fatalf("%s: strategy diverges at state %d: %d vs %d", label, s, got.Strategy[s], want.Strategy[s])
		}
	}
}

// TestResumeBitwiseCompiled: resuming the compiled analysis from any
// checkpoint reproduces the uninterrupted run bitwise — bracket, counters,
// sweeps, and the full extracted strategy.
func TestResumeBitwiseCompiled(t *testing.T) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	var cks []Checkpoint
	ref, err := Analyze(t.Context(), compileFor(t, params), Options{
		Epsilon:      1e-3,
		OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) },
	})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if len(cks) != ref.Iterations {
		t.Fatalf("got %d checkpoints for %d binary-search steps", len(cks), ref.Iterations)
	}
	// Resume from the first, a middle, and the final checkpoint.
	for _, i := range []int{0, len(cks) / 2, len(cks) - 1} {
		ck := cks[i]
		got, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3, Resume: &ck})
		if err != nil {
			t.Fatalf("resume from step %d: %v", ck.Iterations, err)
		}
		equalResults(t, "resumed from step "+string(rune('0'+i)), ref, got)
	}
}

// TestResumeBitwiseGeneric: the same property holds for any registered
// family, not just fork — here the nakamoto family, compiled through the
// family registry and resumed from a mid-search checkpoint.
func TestResumeBitwiseGeneric(t *testing.T) {
	params := core.Params{P: 0.35, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 10}
	compile := func() *kernel.Compiled {
		c, err := families.Compile("nakamoto", params)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var cks []Checkpoint
	ref, err := Analyze(t.Context(), compile(), Options{
		Epsilon:      1e-3,
		OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) },
	})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	ck := cks[len(cks)/2]
	got, err := Analyze(t.Context(), compile(), Options{Epsilon: 1e-3, Resume: &ck})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	equalResults(t, "nakamoto resume", ref, got)
}

// TestResumeCheckpointReusable: resuming must not corrupt the caller's
// checkpoint — the same snapshot resumes twice with identical outcomes.
func TestResumeCheckpointReusable(t *testing.T) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3}
	var cks []Checkpoint
	if _, err := Analyze(t.Context(), compileFor(t, params), Options{
		Epsilon:      1e-3,
		OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) },
	}); err != nil {
		t.Fatal(err)
	}
	ck := cks[0]
	saved := append([]float64(nil), ck.Values...)
	first, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3, Resume: &ck})
	if err != nil {
		t.Fatal(err)
	}
	for i := range saved {
		if math.Float64bits(saved[i]) != math.Float64bits(ck.Values[i]) {
			t.Fatalf("resume mutated checkpoint values at %d", i)
		}
	}
	second, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3, Resume: &ck})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "second resume", first, second)
}

// TestResumeRejectsMalformedCheckpoints: brackets, counters and value
// vectors no run could have produced are rejected up front. A non-finite
// value would otherwise read as a certified sign on every later step and
// resume into a wrong "certified" ERRev. A rejected resume counts no
// Algorithm 1 run and times none.
func TestResumeRejectsMalformedCheckpoints(t *testing.T) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3}
	n := compileFor(t, params).NumStates()
	allNaN := make([]float64, n)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	firstInf := make([]float64, n)
	firstInf[0] = math.Inf(1)
	bad := []Checkpoint{
		{BetaLow: 0.7, BetaUp: 0.3},
		{BetaLow: -0.1, BetaUp: 0.5},
		{BetaLow: 0.1, BetaUp: 1.5},
		{BetaLow: math.NaN(), BetaUp: 0.5},
		{BetaLow: 0.1, BetaUp: 0.5, Iterations: -1},
		{BetaLow: 0.25, BetaUp: 0.5, Iterations: 2, Values: allNaN},
		{BetaLow: 0.25, BetaUp: 0.5, Iterations: 2, Values: firstInf},
	}
	for i, ck := range bad {
		comp := compileFor(t, params)
		before := runCounters(backendCompiled)
		if _, err := Analyze(t.Context(), comp, Options{Epsilon: 1e-3, Resume: &ck}); err == nil {
			t.Errorf("compiled accepted malformed checkpoint %d: %+v", i, ck)
		}
		assertNoRunCounted(t, backendCompiled, fmt.Sprintf("malformed checkpoint %d", i), before)
	}
	// A non-finite entry is named by its index.
	ck := Checkpoint{BetaLow: 0.25, BetaUp: 0.5, Values: firstInf}
	if _, err := Analyze(t.Context(), compileFor(t, params), Options{Epsilon: 1e-3, Resume: &ck}); err == nil || !strings.Contains(err.Error(), "value 0 ") {
		t.Errorf("non-finite value error %v does not name index 0", err)
	}
	// A wrong-length value vector is caught by the solver's length check.
	ck = Checkpoint{BetaLow: 0.1, BetaUp: 0.5, Values: []float64{1, 2, 3}}
	comp := compileFor(t, params)
	before := runCounters(backendCompiled)
	if _, err := Analyze(t.Context(), comp, Options{Epsilon: 1e-3, Resume: &ck}); err == nil {
		t.Error("compiled accepted a wrong-length value vector")
	}
	assertNoRunCounted(t, backendCompiled, "wrong-length checkpoint vector", before)
}
