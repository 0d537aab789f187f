package analysis

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/solve"
)

func mustAnalyze(t *testing.T, p core.Params, eps float64) *Result {
	t.Helper()
	res, err := Analyze(t.Context(), compileFor(t, p), Options{Epsilon: eps})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", p, err)
	}
	return res
}

// exactModel materializes the fork model at p for the exact oracle.
func exactModel(t *testing.T, p core.Params) solve.Model {
	t.Helper()
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatalf("NewModel(%v): %v", p, err)
	}
	exact, err := solve.Materialize(m, p.P, p.Gamma)
	if err != nil {
		t.Fatalf("Materialize(%v): %v", p, err)
	}
	return exact
}

// exactGain is the optimal mean payoff MP*_β of the fork model at p, by
// Howard policy iteration on the materialized model.
func exactGain(t *testing.T, p core.Params, beta float64) float64 {
	t.Helper()
	exact, err := exactModel(t, p).PolicyIteration(solve.Beta(beta), 0)
	if err != nil {
		t.Fatalf("PolicyIteration(%v, beta=%v): %v", p, beta, err)
	}
	return exact.Gain
}

// TestAnalyzeLowResourceMatchesHonest: with little resource and no network
// advantage, selfish mining cannot beat honest mining, so ERRev* = p.
func TestAnalyzeLowResourceMatchesHonest(t *testing.T) {
	p := core.Params{P: 0.1, Gamma: 0, Depth: 1, Forks: 1, MaxLen: 4}
	res := mustAnalyze(t, p, 1e-4)
	if res.ERRev < p.P-1e-4 || res.ERRev > p.P+2e-3 {
		t.Errorf("ERRev = %v, want ~%v", res.ERRev, p.P)
	}
}

// TestAnalyzeRacingPaysAtHighGamma reproduces the paper's observation that
// the d=f=1 attack starts to pay off for γ > 0.5 and p > 0.25.
func TestAnalyzeRacingPaysAtHighGamma(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 1, Depth: 1, Forks: 1, MaxLen: 4}
	res := mustAnalyze(t, p, 1e-4)
	if res.ERRev <= p.P+0.005 {
		t.Errorf("ERRev = %v at gamma=1, want clearly above p=%v", res.ERRev, p.P)
	}
}

// TestAnalyzeStrategyAchievesBound is the Theorem 3.1 consistency check:
// the independently evaluated revenue of the extracted strategy must agree
// with the certified bound up to ε.
func TestAnalyzeStrategyAchievesBound(t *testing.T) {
	configs := []core.Params{
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4},
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4},
		{P: 0.2, Gamma: 0.25, Depth: 2, Forks: 1, MaxLen: 3},
	}
	const eps = 1e-4
	for _, p := range configs {
		t.Run(p.String(), func(t *testing.T) {
			res := mustAnalyze(t, p, eps)
			if math.IsNaN(res.StrategyERRev) {
				t.Fatal("strategy evaluation skipped unexpectedly")
			}
			// The strategy's true revenue must be at least the certified
			// lower bound (up to solver tolerance) and within ε + slack of it.
			if res.StrategyERRev < res.ERRev-5e-4 {
				t.Errorf("strategy ERRev %v below certified bound %v", res.StrategyERRev, res.ERRev)
			}
			if res.StrategyERRev > res.ERRev+eps+5e-3 {
				t.Errorf("strategy ERRev %v too far above bound %v: binary search not tight", res.StrategyERRev, res.ERRev)
			}
		})
	}
}

// TestAnalyzeMonotoneInP: more resource, more revenue.
func TestAnalyzeMonotoneInP(t *testing.T) {
	prev := -1.0
	for _, pr := range []float64{0.1, 0.2, 0.3} {
		p := core.Params{P: pr, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
		res := mustAnalyze(t, p, 1e-4)
		if res.ERRev < prev-1e-4 {
			t.Errorf("ERRev not monotone in p: %v after %v", res.ERRev, prev)
		}
		prev = res.ERRev
	}
}

// TestAnalyzeMonotoneInGamma: network advantage helps.
func TestAnalyzeMonotoneInGamma(t *testing.T) {
	prev := -1.0
	for _, g := range []float64{0, 0.5, 1} {
		p := core.Params{P: 0.3, Gamma: g, Depth: 2, Forks: 1, MaxLen: 4}
		res := mustAnalyze(t, p, 1e-4)
		if res.ERRev < prev-1e-4 {
			t.Errorf("ERRev not monotone in gamma: %v after %v", res.ERRev, prev)
		}
		prev = res.ERRev
	}
}

// TestAnalyzeDeeperAttackDominates: d=2 must dominate d=1 (the d=1 attack
// is a restriction of the d=2 attack).
func TestAnalyzeDeeperAttackDominates(t *testing.T) {
	p1 := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4}
	p2 := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	r1 := mustAnalyze(t, p1, 1e-4)
	r2 := mustAnalyze(t, p2, 1e-4)
	if r2.ERRev < r1.ERRev-1e-4 {
		t.Errorf("d=2 ERRev %v below d=1 ERRev %v", r2.ERRev, r1.ERRev)
	}
}

// TestAnalyzeAboveHonest: the attack always embeds an honest-equivalent
// strategy, so ERRev* >= p.
func TestAnalyzeAboveHonest(t *testing.T) {
	for _, pr := range []float64{0.1, 0.25} {
		p := core.Params{P: pr, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 3}
		res := mustAnalyze(t, p, 1e-3)
		if res.ERRev < pr-1e-3 {
			t.Errorf("p=%v: ERRev %v below honest revenue", pr, res.ERRev)
		}
	}
}

// TestMeanPayoffMonotoneInBeta verifies the monotonicity that justifies the
// binary search (Section 3.3): MP*_β decreases in β, is >= 0 at β=0 and
// <= 0 at β=1.
func TestMeanPayoffMonotoneInBeta(t *testing.T) {
	c := compileFor(t, core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3})
	prev := math.Inf(1)
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		sr, err := c.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-9})
		if err != nil {
			t.Fatalf("MeanPayoff(beta=%v): %v", beta, err)
		}
		if sr.Gain > prev+1e-7 {
			t.Errorf("MP*_beta increased at beta=%v: %v after %v", beta, sr.Gain, prev)
		}
		prev = sr.Gain
		switch beta {
		case 0:
			if sr.Gain < -1e-9 {
				t.Errorf("MP*_0 = %v, want >= 0", sr.Gain)
			}
		case 1:
			if sr.Gain > 1e-9 {
				t.Errorf("MP*_1 = %v, want <= 0", sr.Gain)
			}
		}
	}
}

// TestAnalyzeAgreesWithPolicyIteration cross-checks the two solver families
// end to end on the smallest configuration: MP*_β from the compiled
// kernel's RVI must match exact policy iteration at each binary-search
// midpoint.
func TestAnalyzeAgreesWithPolicyIteration(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4}
	c := compileFor(t, p)
	for _, beta := range []float64{0.1, 0.3, 0.5} {
		exact := exactGain(t, p, beta)
		iter, err := c.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-9})
		if err != nil {
			t.Fatalf("MeanPayoff(beta=%v): %v", beta, err)
		}
		if math.Abs(exact-iter.Gain) > 1e-6 {
			t.Errorf("beta=%v: PI gain %v vs RVI gain %v", beta, exact, iter.Gain)
		}
	}
}

// TestAnalyzeEdgeCaseZeroResource: with p=0 the adversary never mines a
// block, so ERRev* = 0.
func TestAnalyzeEdgeCaseZeroResource(t *testing.T) {
	p := core.Params{P: 0, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	res := mustAnalyze(t, p, 1e-4)
	if res.ERRev > 1e-4 {
		t.Errorf("ERRev = %v at p=0, want 0", res.ERRev)
	}
}

// TestAnalyzeSkipStrategyEval leaves StrategyERRev as NaN.
func TestAnalyzeSkipStrategyEval(t *testing.T) {
	p := core.Params{P: 0.2, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3}
	res, err := Analyze(t.Context(), compileFor(t, p), Options{Epsilon: 1e-3, SkipStrategyEval: true})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !math.IsNaN(res.StrategyERRev) {
		t.Errorf("StrategyERRev = %v, want NaN (skipped)", res.StrategyERRev)
	}
	if res.Strategy == nil {
		t.Error("Strategy missing")
	}
}

// TestCompiledBackendAgreesWithGeneric runs full Algorithm 1 on the
// compiled kernel and checks it against the exact oracle on the
// materialized fork model: the certified bracket must contain β*,
// the root of MP*_β by policy iteration, and the extracted strategy's exact
// stationary revenue must match the compiled evaluator's and lie in the
// bracket.
func TestCompiledBackendAgreesWithGeneric(t *testing.T) {
	configs := []core.Params{
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4},
		{P: 0.2, Gamma: 0.75, Depth: 2, Forks: 1, MaxLen: 4},
		{P: 0.3, Gamma: 0.25, Depth: 2, Forks: 2, MaxLen: 3},
	}
	if testing.Short() {
		// Exact PI's dense solves on the 1536-state d2f2l3 model take about
		// a minute under -race; d2f2l2 (486 states) keeps an f=2 shape.
		configs[2].MaxLen = 2
	}
	const eps = 1e-4
	for _, p := range configs {
		t.Run(p.String(), func(t *testing.T) {
			res, err := Analyze(t.Context(), compileFor(t, p), Options{Epsilon: eps})
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			exact, err := exactModel(t, p).ERRev(res.Strategy)
			if err != nil {
				t.Fatalf("ERRev: %v", err)
			}
			if math.Abs(exact-res.StrategyERRev) > 1e-6 {
				t.Errorf("strategy ERRev: compiled %v, exact %v", res.StrategyERRev, exact)
			}
			if exact < res.ERRev-eps || exact > res.BetaUp+eps {
				t.Errorf("exact strategy ERRev %v outside the certified bracket [%v, %v]", exact, res.ERRev, res.BetaUp)
			}
			if g := exactGain(t, p, res.ERRev); g < -1e-9 {
				t.Errorf("PI MP* at the lower end %v is %v, want >= 0", res.ERRev, g)
			}
			if g := exactGain(t, p, res.BetaUp); g > 1e-9 {
				t.Errorf("PI MP* at the upper end %v is %v, want <= 0", res.BetaUp, g)
			}
		})
	}
}

// TestAnalyzeResultBracket: the returned bracket is consistent and tighter
// than epsilon.
func TestAnalyzeResultBracket(t *testing.T) {
	p := core.Params{P: 0.25, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	res := mustAnalyze(t, p, 1e-4)
	if res.BetaLow != res.ERRev {
		t.Errorf("ERRev %v != BetaLow %v", res.ERRev, res.BetaLow)
	}
	if res.BetaUp-res.BetaLow >= 1e-4 {
		t.Errorf("bracket width %v >= epsilon", res.BetaUp-res.BetaLow)
	}
	if res.BetaUp < res.BetaLow {
		t.Errorf("inverted bracket [%v, %v]", res.BetaLow, res.BetaUp)
	}
}
