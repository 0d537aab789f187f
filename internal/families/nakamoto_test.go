package families

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
)

func nakamotoERRev(t *testing.T, p, gamma float64, l int, eps float64) float64 {
	t.Helper()
	c, err := Compile("nakamoto", core.Params{P: p, Gamma: gamma, Depth: 1, Forks: 1, MaxLen: l})
	if err != nil {
		t.Fatalf("p=%v gamma=%v: Compile: %v", p, gamma, err)
	}
	res, err := analysis.Analyze(t.Context(), c, analysis.Options{Epsilon: eps, SkipStrategy: true})
	if err != nil {
		t.Fatalf("p=%v gamma=%v: Analyze: %v", p, gamma, err)
	}
	return res.ERRev
}

// TestNakamotoHonestBelowThreshold: below the classic profitability
// threshold (1/3 for γ=0) selfish mining cannot beat honest mining, so the
// certified optimum is p itself.
func TestNakamotoHonestBelowThreshold(t *testing.T) {
	for _, p := range []float64{0.1, 0.2} {
		got := nakamotoERRev(t, p, 0, 15, 1e-5)
		if math.Abs(got-p) > 2e-5 {
			t.Errorf("p=%v gamma=0: ERRev %v, want honest %v", p, got, p)
		}
	}
}

// TestNakamotoBeatsSM1AboveThreshold: the optimal bounded strategy must be
// at least as good as the published SM1 closed form (the fixed Eyal–Sirer
// strategy) and strictly better than honest mining above the threshold.
func TestNakamotoBeatsSM1AboveThreshold(t *testing.T) {
	for _, pt := range []struct{ p, gamma float64 }{{0.4, 0}, {0.35, 0.5}, {0.4, 1}} {
		got := nakamotoERRev(t, pt.p, pt.gamma, 20, 1e-4)
		sm1, err := baseline.EyalSirerClosedForm(pt.p, pt.gamma)
		if err != nil {
			t.Fatal(err)
		}
		if got < sm1-2e-4 {
			t.Errorf("p=%v gamma=%v: optimal ERRev %v below SM1 closed form %v", pt.p, pt.gamma, got, sm1)
		}
		if got <= pt.p {
			t.Errorf("p=%v gamma=%v: optimal ERRev %v does not beat honest", pt.p, pt.gamma, got)
		}
		if got >= 1 {
			t.Errorf("p=%v gamma=%v: ERRev %v out of range", pt.p, pt.gamma, got)
		}
	}
}

// TestNakamotoGammaMonotone: winning more broadcast races cannot hurt.
func TestNakamotoGammaMonotone(t *testing.T) {
	lo := nakamotoERRev(t, 0.35, 0, 15, 1e-4)
	hi := nakamotoERRev(t, 0.35, 1, 15, 1e-4)
	if hi < lo-1e-4 {
		t.Errorf("ERRev(gamma=1) = %v below ERRev(gamma=0) = %v", hi, lo)
	}
}

func TestNakamotoStochastic(t *testing.T) {
	for _, pt := range []struct{ p, gamma float64 }{{0.3, 0.5}, {0, 0}, {1, 1}} {
		c, err := Compile("nakamoto", core.Params{P: pt.p, Gamma: pt.gamma, Depth: 1, Forks: 1, MaxLen: 8})
		if err != nil {
			t.Fatalf("p=%v gamma=%v: %v", pt.p, pt.gamma, err)
		}
		if err := c.CheckStochastic(1e-6); err != nil {
			t.Errorf("p=%v gamma=%v: %v", pt.p, pt.gamma, err)
		}
	}
}

func TestNakamotoValidate(t *testing.T) {
	fam, err := Get("nakamoto")
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 20}); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []core.Params{
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 20}, // depth
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 2, MaxLen: 20}, // forks
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 0},  // bound
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 63}, // reward packing
		{P: 1.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 20}, // p range
	}
	for _, b := range bad {
		if err := fam.Validate(b); err == nil {
			t.Errorf("invalid params %+v accepted", b)
		}
	}
	n, err := fam.NumStates(core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n != 11*11*3 {
		t.Errorf("NumStates = %d, want %d", n, 11*11*3)
	}
}
