package selfishmining

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestModelsCatalog: the discovery list carries every registered family
// with usable metadata, fork first by name order contract (sorted).
func TestModelsCatalog(t *testing.T) {
	models := Models()
	if len(models) < 3 {
		t.Fatalf("expected at least 3 families, got %d", len(models))
	}
	seen := map[string]bool{}
	for _, m := range models {
		seen[m.Name] = true
		if m.Description == "" || m.Depth == "" || m.Forks == "" || m.MaxForkLen == "" {
			t.Errorf("family %q has empty metadata: %+v", m.Name, m)
		}
		p := AttackParams{
			Model:     m.Name,
			Adversary: 0.1, Switching: 0.5,
			Depth: m.DefaultDepth, Forks: m.DefaultForks, MaxForkLen: m.DefaultMaxForkLen,
		}
		if err := p.Validate(); err != nil {
			t.Errorf("family %q default shape does not validate: %v", m.Name, err)
		}
	}
	for _, want := range []string{"fork", "singletree", "nakamoto"} {
		if !seen[want] {
			t.Errorf("family %q missing from Models()", want)
		}
	}
	if DefaultModel != "fork" {
		t.Errorf("DefaultModel = %q", DefaultModel)
	}
}

// requireUnknownFamilyError asserts the error names the bad family and
// lists every valid one.
func requireUnknownFamilyError(t *testing.T, err error, context string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: unknown family accepted", context)
	}
	msg := err.Error()
	if !strings.Contains(msg, "bogus") {
		t.Errorf("%s: error %q does not name the unknown family", context, msg)
	}
	for _, m := range Models() {
		if !strings.Contains(msg, m.Name) {
			t.Errorf("%s: error %q does not list valid family %q", context, msg, m.Name)
		}
	}
}

func TestUnknownFamilyErrors(t *testing.T) {
	bad := AttackParams{Model: "bogus", Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4}

	requireUnknownFamilyError(t, bad.Validate(), "AttackParams.Validate")

	_, err := AnalyzeContext(context.Background(), bad)
	requireUnknownFamilyError(t, err, "AnalyzeContext")

	svc := NewService(ServiceConfig{})
	_, err = svc.AnalyzeContext(context.Background(), bad)
	requireUnknownFamilyError(t, err, "Service.AnalyzeContext")

	_, err = svc.AnalyzeBatchContext(context.Background(), []AttackParams{bad})
	requireUnknownFamilyError(t, err, "Service.AnalyzeBatchContext")

	_, err = svc.SweepContext(context.Background(), SweepOptions{Model: "bogus", Gamma: 0.5, PGrid: []float64{0.1}})
	requireUnknownFamilyError(t, err, "Service.SweepContext")

	if n := bad.NumStates(); n != 0 {
		t.Errorf("NumStates of unknown family = %d, want 0", n)
	}
}

// TestNonForkFamilyThroughService: the serving layer solves, caches and
// coalesces non-fork families; singletree must agree with the exact
// baseline it models.
func TestNonForkFamilyThroughService(t *testing.T) {
	svc := NewService(ServiceConfig{})
	p := AttackParams{
		Model:     "singletree",
		Adversary: 0.3, Switching: 0.5,
		Depth: 1, Forks: 3, MaxForkLen: 3,
	}
	res, err := svc.AnalyzeContext(context.Background(), p, WithEpsilon(1e-6), WithBoundOnly())
	if err != nil {
		t.Fatalf("AnalyzeContext(singletree): %v", err)
	}
	want, err := SingleTreeRevenue(0.3, 0.5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ERRev-want) > 1e-5 {
		t.Errorf("service singletree ERRev %v, baseline %v", res.ERRev, want)
	}
	_, info, err := svc.AnalyzeDetailedContext(context.Background(), p, WithEpsilon(1e-6), WithBoundOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("repeated singletree request missed the result cache")
	}
	// The same shape under a different family must NOT collide in any
	// cache: nakamoto (1,1,l) vs fork (1,1,l) is the dangerous pair.
	nak := AttackParams{Model: "nakamoto", Adversary: 0.3, Switching: 0.5, Depth: 1, Forks: 1, MaxForkLen: 4}
	fork := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 1, Forks: 1, MaxForkLen: 4}
	nakRes, err := svc.AnalyzeContext(context.Background(), nak, WithEpsilon(1e-4), WithBoundOnly())
	if err != nil {
		t.Fatalf("AnalyzeContext(nakamoto): %v", err)
	}
	forkRes, err := svc.AnalyzeContext(context.Background(), fork, WithEpsilon(1e-4), WithBoundOnly())
	if err != nil {
		t.Fatalf("AnalyzeContext(fork): %v", err)
	}
	if nakRes.ERRev == forkRes.ERRev {
		t.Errorf("nakamoto and fork at the same shape returned identical ERRev %v — cache key collision?", nakRes.ERRev)
	}
}

// TestNonForkFullAnalysisAndSubstrateGates: a full (strategy-extracting)
// non-fork analysis works through the compiled kernel, but the physical
// fork substrate (Simulate/Profile/WriteStrategy) is gated off.
func TestNonForkFullAnalysisAndSubstrateGates(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), AttackParams{
		Model:     "nakamoto",
		Adversary: 0.4, Switching: 0,
		Depth: 1, Forks: 1, MaxForkLen: 10,
	}, WithEpsilon(1e-4))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(res.Strategy) != res.Params.NumStates() {
		t.Errorf("strategy covers %d states, model has %d", len(res.Strategy), res.Params.NumStates())
	}
	if IsSkipped(res.StrategyERRev) {
		t.Error("full analysis skipped the strategy evaluation")
	}
	if math.Abs(res.StrategyERRev-res.ERRev) > 1e-3 {
		t.Errorf("strategy ERRev %v far from certified bound %v", res.StrategyERRev, res.ERRev)
	}
	if _, err := res.Simulate(1000, 1); !errors.Is(err, ErrNoSubstrate) {
		t.Errorf("Simulate on non-fork family: err = %v, want ErrNoSubstrate", err)
	}
	if _, err := res.Profile(); !errors.Is(err, ErrNoSubstrate) {
		t.Errorf("Profile on non-fork family: err = %v, want ErrNoSubstrate", err)
	}
	if err := res.WriteStrategy(&strings.Builder{}); !errors.Is(err, ErrNoSubstrate) {
		t.Errorf("WriteStrategy on non-fork family: err = %v, want ErrNoSubstrate", err)
	}
}

// TestNonForkSweep: a sweep over a non-fork family produces the honest
// baseline plus one curve per config, with family-named series.
func TestNonForkSweep(t *testing.T) {
	fig, err := SweepContext(context.Background(), SweepOptions{
		Model:   "nakamoto",
		Gamma:   0,
		PGrid:   []float64{0, 0.2, 0.4},
		Epsilon: 1e-3,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("got %d series, want 2 (honest + nakamoto default shape)", len(fig.Series))
	}
	if fig.Series[0].Name != "honest" {
		t.Errorf("first series %q, want honest", fig.Series[0].Name)
	}
	if !strings.HasPrefix(fig.Series[1].Name, "nakamoto(") {
		t.Errorf("attack series %q not named after the family", fig.Series[1].Name)
	}
	// p=0.4, γ=0 is above the threshold: the optimal attack beats honest.
	if fig.Series[1].Values[2] <= fig.Series[0].Values[2] {
		t.Errorf("nakamoto %v does not beat honest %v at p=0.4", fig.Series[1].Values[2], fig.Series[0].Values[2])
	}
	// p=0 shortcut applies to every family.
	if fig.Series[1].Values[0] != 0 {
		t.Errorf("p=0 point = %v, want 0", fig.Series[1].Values[0])
	}
}

// TestSingletreeSweepRejectsPOne: per-point family validation runs before
// any solving (singletree is non-ergodic at p=1).
func TestSingletreeSweepRejectsPOne(t *testing.T) {
	_, err := SweepContext(context.Background(), SweepOptions{
		Model:   "singletree",
		Gamma:   0.5,
		PGrid:   []float64{0.5, 1},
		Epsilon: 1e-3,
	})
	if err == nil {
		t.Fatal("singletree sweep accepted p=1")
	}
}
