package kernel

import (
	"context"
	"math"
	"strings"
	"testing"
)

// coinSource is a minimal parametric family: one state, two actions.
// Action 0 ("idle") surely loops with no reward; action 1 ("bet") loops
// while paying an adversary block w.p. p and an honest block w.p. 1−p.
// The optimal mean payoff of r_β is therefore max(0, p−β).
type coinSource struct{}

func (coinSource) NumStates() int     { return 1 }
func (coinSource) NumActions(int) int { return 2 }
func (coinSource) Laws() []ProbLaw {
	return []ProbLaw{
		func(_, _ float64, _ int) float64 { return 1 },
		func(p, _ float64, _ int) float64 { return p },
		func(p, _ float64, _ int) float64 { return 1 - p },
	}
}
func (coinSource) BlockRate(p, _ float64) float64 { return 1 }
func (coinSource) RawTransitions(s, a int, buf []Raw) []Raw {
	if a == 0 {
		return append(buf, Raw{Dst: 0, Kind: 0})
	}
	return append(buf,
		Raw{Dst: 0, Kind: 1, RA: 1},
		Raw{Dst: 0, Kind: 2, RH: 1},
	)
}

// cycleSource is a deterministic two-state cycle paying one adversary and
// one honest block per lap: gain of r_β is (1−2β)/2 and ERRev is 1/2.
type cycleSource struct{}

func (cycleSource) NumStates() int     { return 2 }
func (cycleSource) NumActions(int) int { return 1 }
func (cycleSource) Laws() []ProbLaw {
	return []ProbLaw{func(_, _ float64, _ int) float64 { return 1 }}
}
func (cycleSource) BlockRate(_, _ float64) float64 { return 1 }
func (cycleSource) RawTransitions(s, a int, buf []Raw) []Raw {
	if s == 0 {
		return append(buf, Raw{Dst: 1, Kind: 0, RA: 1})
	}
	return append(buf, Raw{Dst: 0, Kind: 0, RH: 1})
}

func TestCompileCoinGainAndPolicy(t *testing.T) {
	c, err := Compile(coinSource{}, 0.3, 0.5)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := c.CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
	res, err := c.MeanPayoffCtx(context.Background(), 0.1, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if math.Abs(res.Gain-0.2) > 1e-6 {
		t.Errorf("gain at beta=0.1: %v, want 0.2", res.Gain)
	}
	if pol := c.GreedyPolicy(0.1); pol[0] != 1 {
		t.Errorf("greedy policy at beta=0.1: %v, want [1]", pol)
	}
	if pol := c.GreedyPolicy(0.5); pol[0] != 0 {
		t.Errorf("greedy policy at beta=0.5: %v, want [0]", pol)
	}
	errev, err := c.EvalERRevCtx(context.Background(), []int{1}, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	if math.Abs(errev-0.3) > 1e-6 {
		t.Errorf("ERRev of bet policy: %v, want 0.3", errev)
	}
}

// TestSetChainParamsReResolvesLaws: re-pointing the compiled structure at
// new chain parameters must re-evaluate the family's law table.
func TestSetChainParamsReResolvesLaws(t *testing.T) {
	c, err := Compile(coinSource{}, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetChainParams(0.7, 0.5); err != nil {
		t.Fatal(err)
	}
	if c.P() != 0.7 || c.Gamma() != 0.5 {
		t.Fatalf("chain params (%v, %v), want (0.7, 0.5)", c.P(), c.Gamma())
	}
	errev, err := c.EvalERRevCtx(context.Background(), []int{1}, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errev-0.7) > 1e-6 {
		t.Errorf("ERRev after re-resolution: %v, want 0.7", errev)
	}
	if err := c.SetChainParams(1.5, 0); err == nil {
		t.Error("p=1.5 accepted")
	}
	if err := c.SetChainParams(0.5, math.NaN()); err == nil {
		t.Error("NaN gamma accepted")
	}
}

func TestCycleERRev(t *testing.T) {
	c, err := Compile(cycleSource{}, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.MeanPayoffCtx(context.Background(), 0.25, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain-0.25) > 1e-9 {
		t.Errorf("cycle gain at beta=0.25: %v, want 0.25", res.Gain)
	}
	errev, err := c.EvalERRevCtx(context.Background(), []int{0, 0}, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errev-0.5) > 1e-9 {
		t.Errorf("cycle ERRev: %v, want 0.5", errev)
	}
}

// TestCloneSharesStructure: clones share the immutable arrays and copy the
// mutable per-solve state — the invariant the sweep orchestration relies
// on to run many solvers over one compilation.
func TestCloneSharesStructure(t *testing.T) {
	c, err := Compile(cycleSource{}, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	if &cl.transStart[0] != &c.transStart[0] || &cl.dst[0] != &c.dst[0] || &cl.meta[0] != &c.meta[0] {
		t.Error("clone does not share the immutable transition structure")
	}
	if &cl.probs[0] == &c.probs[0] {
		t.Error("clone shares the mutable probability buffer")
	}
	if err := cl.SetChainParams(0.1, 0.2); err != nil {
		t.Fatal(err)
	}
	if c.P() != 0.5 {
		t.Errorf("clone's SetChainParams leaked into base: p=%v", c.P())
	}
}

// TestStructureCloneSolvesLikeCompiled: the structure-only form carries no
// solver buffers, and a clone of it pointed at (p, γ) solves bitwise like
// an instance compiled at (p, γ) — the equivalence that lets a structure
// cache keep structures only, whatever chain parameters compiled them.
func TestStructureCloneSolvesLikeCompiled(t *testing.T) {
	const n, p, gamma = 300, 0.35, 0.5
	want := compileRing(t, n, p)
	st := compileRing(t, n, 0.1).Structure()
	if st.probs != nil || st.h != nil || st.next != nil {
		t.Fatal("Structure retains per-solve buffers")
	}
	got := st.Clone()
	if err := got.SetChainParams(p, gamma); err != nil {
		t.Fatal(err)
	}
	for _, solve := range []struct {
		beta float64
		opts Options
	}{
		{0.2, Options{Tol: 1e-9}},
		{0.4, Options{Tol: 1e-9, SignOnly: true, KeepValues: true}},
	} {
		wr, err := want.MeanPayoffCtx(context.Background(), solve.beta, solve.opts)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.MeanPayoffCtx(context.Background(), solve.beta, solve.opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gr.Lo) != math.Float64bits(wr.Lo) || math.Float64bits(gr.Hi) != math.Float64bits(wr.Hi) ||
			math.Float64bits(gr.Gain) != math.Float64bits(wr.Gain) || gr.Iters != wr.Iters || gr.Converged != wr.Converged {
			t.Fatalf("beta=%v: structure clone solved %+v, compiled %+v", solve.beta, *gr, *wr)
		}
		wv, gv := want.Values(), got.Values()
		for s := range wv {
			if math.Float64bits(gv[s]) != math.Float64bits(wv[s]) {
				t.Fatalf("beta=%v: value[%d] = %v, compiled %v", solve.beta, s, gv[s], wv[s])
			}
		}
	}
}

// badSource exercises the compile-time structural validation paths.
type badSource struct {
	coinSource
	mode string
}

func (b badSource) RawTransitions(s, a int, buf []Raw) []Raw {
	switch b.mode {
	case "law":
		return append(buf, Raw{Dst: 0, Kind: 7})
	case "reward":
		return append(buf, Raw{Dst: 0, Kind: 0, RA: MaxReward + 1})
	case "dst":
		return append(buf, Raw{Dst: 99, Kind: 0})
	case "empty":
		return buf
	}
	return b.coinSource.RawTransitions(s, a, buf)
}

func TestCompileRejectsMalformedSources(t *testing.T) {
	for _, mode := range []string{"law", "reward", "dst", "empty"} {
		if _, err := Compile(badSource{mode: mode}, 0.3, 0.5); err == nil {
			t.Errorf("mode %q: malformed source accepted", mode)
		} else if !strings.HasPrefix(err.Error(), "kernel:") {
			t.Errorf("mode %q: error %q lacks kernel prefix", mode, err)
		}
	}
}

// leakySource under-sums its probabilities; CheckStochastic must notice.
type leakySource struct{ coinSource }

func (leakySource) Laws() []ProbLaw {
	return []ProbLaw{
		func(_, _ float64, _ int) float64 { return 0.9 },
		func(p, _ float64, _ int) float64 { return p },
		func(p, _ float64, _ int) float64 { return 1 - p },
	}
}

func TestCheckStochasticCatchesLeaks(t *testing.T) {
	c, err := Compile(leakySource{}, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckStochastic(1e-6); err == nil {
		t.Error("leaky action distribution passed CheckStochastic")
	}
}
