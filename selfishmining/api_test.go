package selfishmining

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/solve"
)

func smallParams() AttackParams {
	return AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.ERRev < 0.3 || res.ERRev > 1 {
		t.Errorf("ERRev = %v, want in [0.3, 1] (attack at least matches honest)", res.ERRev)
	}
	if math.Abs(res.StrategyERRev-res.ERRev) > 0.01 {
		t.Errorf("strategy ERRev %v far from bound %v", res.StrategyERRev, res.ERRev)
	}
	if got := res.ChainQuality(); math.Abs(got-(1-res.ERRev)) > 1e-12 {
		t.Errorf("ChainQuality = %v, want %v", got, 1-res.ERRev)
	}
	if len(res.Strategy) != smallParams().NumStates() {
		t.Errorf("strategy covers %d states, want %d", len(res.Strategy), smallParams().NumStates())
	}
}

// TestAnalyzeBackendsAgree checks the package-level analysis against the
// exact oracle on the materialized fork model: the compiled kernel's
// evaluation of the computed strategy agrees with exact stationary
// analysis of that strategy, which reaches the certified bound, and the
// certified bracket contains β*, the root of MP*_β by policy iteration.
func TestAnalyzeBackendsAgree(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	p := res.model.Params()
	oracle, err := solve.Materialize(res.model, p.P, p.Gamma)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	exact, err := oracle.ERRev(res.Strategy)
	if err != nil {
		t.Fatalf("ERRev: %v", err)
	}
	if math.Abs(exact-res.StrategyERRev) > 1e-6 {
		t.Errorf("backends disagree: compiled strategy ERRev %v, exact %v", res.StrategyERRev, exact)
	}
	if exact < res.ERRev-2e-4 {
		t.Errorf("exact strategy ERRev %v below the certified bound %v", exact, res.ERRev)
	}

	mpStar := func(beta float64) float64 {
		t.Helper()
		pi, err := oracle.PolicyIteration(solve.Beta(beta), 0)
		if err != nil {
			t.Fatalf("PolicyIteration(beta=%v): %v", beta, err)
		}
		return pi.Gain
	}
	if g := mpStar(res.ERRev); g < -1e-9 {
		t.Errorf("PI MP* at the lower end %v is %v, want >= 0", res.ERRev, g)
	}
	if g := mpStar(res.ERRevUpper); g > 1e-9 {
		t.Errorf("PI MP* at the upper end %v is %v, want <= 0", res.ERRevUpper, g)
	}
}

func TestAnalyzeInvalidParams(t *testing.T) {
	bad := smallParams()
	bad.Adversary = 1.5
	if _, err := AnalyzeContext(context.Background(), bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestAnalyzeWithoutStrategyEval(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams(), WithoutStrategyEval(), WithEpsilon(1e-3))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !IsSkipped(res.StrategyERRev) {
		t.Errorf("StrategyERRev = %v, want skipped marker", res.StrategyERRev)
	}
}

func TestAnalysisSimulateAgrees(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	st, err := res.Simulate(200000, 42)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if math.Abs(st.ERRev-res.StrategyERRev) > 5*st.StdErr+1e-3 {
		t.Errorf("simulated ERRev %v vs exact %v (stderr %v)", st.ERRev, res.StrategyERRev, st.StdErr)
	}
}

func TestAnalysisProfile(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	prof, err := res.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if prof.DecisionStates == 0 {
		t.Error("profile found no decision states")
	}
	// The optimal d=2 strategy must actually use releases.
	if prof.Counts[1]+prof.Counts[2] == 0 {
		t.Error("optimal strategy never releases")
	}
}

func TestStrategyRoundTripViaAPI(t *testing.T) {
	res, err := AnalyzeContext(context.Background(), smallParams(), WithEpsilon(1e-3))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteStrategy(&buf); err != nil {
		t.Fatalf("WriteStrategy: %v", err)
	}
	got, err := ReadStrategy(&buf, smallParams())
	if err != nil {
		t.Fatalf("ReadStrategy: %v", err)
	}
	for i := range got {
		if got[i] != res.Strategy[i] {
			t.Fatalf("strategy round trip diverged at state %d", i)
		}
	}
}

func TestBaselineWrappers(t *testing.T) {
	if v, err := HonestRevenue(0.25); err != nil || v != 0.25 {
		t.Errorf("HonestRevenue = %v, %v", v, err)
	}
	v, err := SingleTreeRevenue(0.3, 0.5, 4, 5)
	if err != nil {
		t.Fatalf("SingleTreeRevenue: %v", err)
	}
	if v <= 0 || v >= 1 {
		t.Errorf("SingleTreeRevenue = %v, want in (0, 1)", v)
	}
	es, err := EyalSirerRevenue(0.35, 0.5)
	if err != nil {
		t.Fatalf("EyalSirerRevenue: %v", err)
	}
	if es <= 0.35 {
		t.Errorf("EyalSirerRevenue(0.35, 0.5) = %v, should beat honest", es)
	}
}

func TestSweepSmallGrid(t *testing.T) {
	fig, err := SweepContext(context.Background(), SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	// Series: honest, single-tree, two attack configs.
	if len(fig.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(fig.Series))
	}
	honest := fig.Series[0]
	ours21 := fig.Series[3]
	for i := range fig.X {
		if ours21.Values[i] < honest.Values[i]-2e-3 {
			t.Errorf("p=%v: ours(2,1) %v below honest %v", fig.X[i], ours21.Values[i], honest.Values[i])
		}
	}
	// Paper headline at the sweep level: the d=2 attack beats the
	// single-tree baseline at p=0.3.
	tree := fig.Series[1]
	last := len(fig.X) - 1
	if ours21.Values[last] < tree.Values[last] {
		t.Errorf("ours(2,1) %v below single-tree %v at p=0.3", ours21.Values[last], tree.Values[last])
	}
}

func TestSweepRejectsBadGamma(t *testing.T) {
	if _, err := SweepContext(context.Background(), SweepOptions{Gamma: 1.5}); err == nil {
		t.Fatal("bad gamma accepted")
	}
}

// TestSweepRejectsBaselineShape: a fork panel carries the single-tree
// baseline of depth MaxForkLen and width TreeWidth, so Normalize refuses a
// shape the baseline does not explore, and nothing solves. Other families
// carry no such series and ignore TreeWidth.
func TestSweepRejectsBaselineShape(t *testing.T) {
	d1f1 := []AttackConfig{{Depth: 1, Forks: 1}}
	for name, opts := range map[string]SweepOptions{
		"depth 9":             {Gamma: 0.5, Configs: d1f1, MaxForkLen: 9},
		"width 31 at depth 4": {Gamma: 0.5, PGrid: []float64{0.1}, Configs: d1f1, MaxForkLen: 4, TreeWidth: 31},
		"width 256":           {Gamma: 0.5, PGrid: []float64{0.1}, Configs: d1f1, MaxForkLen: 2, TreeWidth: 256},
	} {
		normalized := opts
		if err := normalized.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted the options", name)
		}
		svc := NewService(ServiceConfig{})
		if _, err := svc.SweepContext(context.Background(), opts); err == nil {
			t.Errorf("%s: sweep accepted", name)
		}
		if st := svc.Stats(); st.Solves != 0 || st.SweepPoints != 0 {
			t.Errorf("%s: %d solves, %d sweep points before the error", name, st.Solves, st.SweepPoints)
		}
	}
	opts := SweepOptions{Model: "nakamoto", PGrid: []float64{0.2}, TreeWidth: 31}
	if err := opts.Normalize(); err != nil {
		t.Errorf("nakamoto sweep with tree width 31: %v", err)
	}
}

// TestAnalyzeTwoSidedBound: within the MDP, the optimum is bracketed by
// [ERRev, ERRevUpper] with width below epsilon, and the independently
// evaluated strategy revenue falls inside the bracket (up to solver
// tolerance).
func TestAnalyzeTwoSidedBound(t *testing.T) {
	const eps = 1e-4
	res, err := AnalyzeContext(context.Background(), smallParams(), WithEpsilon(eps))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.ERRevUpper < res.ERRev {
		t.Fatalf("bracket inverted: [%v, %v]", res.ERRev, res.ERRevUpper)
	}
	if res.ERRevUpper-res.ERRev >= eps {
		t.Errorf("bracket width %v, want < eps %v", res.ERRevUpper-res.ERRev, eps)
	}
	if res.StrategyERRev < res.ERRev-5e-4 || res.StrategyERRev > res.ERRevUpper+5e-4 {
		t.Errorf("strategy revenue %v outside bracket [%v, %v]", res.StrategyERRev, res.ERRev, res.ERRevUpper)
	}
}
