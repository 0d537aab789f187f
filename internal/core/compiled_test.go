package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/solve"
)

// compile builds the kernel structure of the fork model at p.
func compile(p Params) (*kernel.Compiled, error) {
	m, err := NewModel(p)
	if err != nil {
		return nil, err
	}
	return kernel.Compile(m, p.P, p.Gamma)
}

func mustCompile(t *testing.T, p Params) *kernel.Compiled {
	t.Helper()
	c, err := compile(p)
	if err != nil {
		t.Fatalf("compile(%v): %v", p, err)
	}
	return c
}

// TestCompiledMatchesGenericGain is the central compiled-path cross-check:
// over several configurations and β values, the compiled mean payoff must
// equal the optimal gain that exact policy iteration finds on the
// materialized model, and the compiled solve's greedy strategy must attain
// that optimum under exact evaluation.
func TestCompiledMatchesGenericGain(t *testing.T) {
	configs := []Params{
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4},
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4},
		{P: 0.15, Gamma: 0.25, Depth: 2, Forks: 2, MaxLen: 3},
	}
	if testing.Short() {
		// Exact PI's dense solves on the 1536-state d2f2l3 model take about
		// a minute under -race; d2f2l2 (486 states) keeps an f=2 shape.
		configs[2].MaxLen = 2
	}
	for _, p := range configs {
		t.Run(p.String(), func(t *testing.T) {
			m := exact(t, mustModel(t, p))
			c := mustCompile(t, p)
			for _, beta := range []float64{0.1, 0.35, 0.6} {
				want, err := m.PolicyIteration(solve.Beta(beta), 0)
				if err != nil {
					t.Fatalf("policy iteration: %v", err)
				}
				got, err := c.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-9})
				if err != nil {
					t.Fatalf("compiled solve: %v", err)
				}
				if math.Abs(got.Gain-want.Gain) > 1e-6 {
					t.Errorf("beta=%v: compiled gain %v, PI gain %v", beta, got.Gain, want.Gain)
				}
				g, _, err := m.EvalPolicy(solve.Beta(beta), c.GreedyPolicy(beta))
				if err != nil {
					t.Fatalf("exact evaluation: %v", err)
				}
				if math.Abs(g-want.Gain) > 1e-6 {
					t.Errorf("beta=%v: exact gain of the compiled greedy strategy %v, PI gain %v", beta, g, want.Gain)
				}
			}
		})
	}
}

// TestCompiledTransitionCountsMatch: the flattened structure must contain
// exactly the transitions the model enumerates.
func TestCompiledTransitionCountsMatch(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 2}
	m := mustModel(t, p)
	c := mustCompile(t, p)
	var buf []Raw
	var want int64
	for s := 0; s < m.NumStates(); s++ {
		for a := 0; a < m.NumActions(s); a++ {
			buf = m.RawTransitions(s, a, buf[:0])
			want += int64(len(buf))
		}
	}
	if got := c.NumTransitions(); got != want {
		t.Errorf("NumTransitions = %d, want %d", got, want)
	}
	if c.NumStates() != m.NumStates() {
		t.Errorf("NumStates = %d, want %d", c.NumStates(), m.NumStates())
	}
}

// TestCompiledProbsStochastic: per action, resolved probabilities sum to 1,
// both at compile-time parameters and after a re-resolution.
func TestCompiledProbsStochastic(t *testing.T) {
	p := Params{P: 0.25, Gamma: 0.4, Depth: 2, Forks: 1, MaxLen: 3}
	c := mustCompile(t, p)
	if err := c.CheckStochastic(1e-6); err != nil {
		t.Fatal(err)
	}
	if err := c.SetChainParams(0.4, 0.9); err != nil {
		t.Fatalf("SetChainParams: %v", err)
	}
	if err := c.CheckStochastic(1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledSetChainParams: re-resolving (p, γ) must change the solve
// result accordingly and match a fresh compile.
func TestCompiledSetChainParams(t *testing.T) {
	p := Params{P: 0.1, Gamma: 0, Depth: 2, Forks: 1, MaxLen: 3}
	c := mustCompile(t, p)
	if err := c.SetChainParams(0.3, 0.75); err != nil {
		t.Fatalf("SetChainParams: %v", err)
	}
	got, err := c.MeanPayoffCtx(context.Background(), 0.3, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	fresh := mustCompile(t, Params{P: 0.3, Gamma: 0.75, Depth: 2, Forks: 1, MaxLen: 3})
	want, err := fresh.MeanPayoffCtx(context.Background(), 0.3, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("fresh MeanPayoff: %v", err)
	}
	if math.Abs(got.Gain-want.Gain) > 1e-9 {
		t.Errorf("re-resolved gain %v != fresh gain %v", got.Gain, want.Gain)
	}
}

func TestCompiledSetChainParamsRejectsBad(t *testing.T) {
	c := mustCompile(t, Params{P: 0.1, Gamma: 0, Depth: 1, Forks: 1, MaxLen: 2})
	if err := c.SetChainParams(1.5, 0); err == nil {
		t.Fatal("expected error for p=1.5, got nil")
	}
}

// TestCompiledGreedyPolicyEval: the greedy policy extracted after a solve
// must evaluate (iteratively) to the same ERRev as the exact stationary
// evaluation.
func TestCompiledGreedyPolicyEval(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	c := mustCompile(t, p)
	if _, err := c.MeanPayoffCtx(context.Background(), 0.35, kernel.Options{Tol: 1e-9}); err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	policy := c.GreedyPolicy(0.35)
	got, err := c.EvalERRevCtx(context.Background(), policy, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	want, err := exact(t, mustModel(t, p)).ERRev(policy)
	if err != nil {
		t.Fatalf("ERRev: %v", err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("compiled ERRev %v, exact %v", got, want)
	}
}

// TestCompiledWarmStart: re-solving the same β from the converged value
// vector must be much cheaper than the cold solve and give the same gain.
func TestCompiledWarmStart(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 3}
	c := mustCompile(t, p)
	cold, err := c.MeanPayoffCtx(context.Background(), 0.4, kernel.Options{Tol: 1e-8})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := c.MeanPayoffCtx(context.Background(), 0.4, kernel.Options{Tol: 1e-8, KeepValues: true})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Iters > cold.Iters/2 {
		t.Errorf("warm solve took %d sweeps, cold %d; warm start ineffective", warm.Iters, cold.Iters)
	}
	if math.Abs(warm.Gain-cold.Gain) > 1e-7 {
		t.Errorf("warm gain %v != cold gain %v", warm.Gain, cold.Gain)
	}
}

// TestCompiledEvalPolicyWrongLength exercises the failure path.
func TestCompiledEvalPolicyWrongLength(t *testing.T) {
	c := mustCompile(t, Params{P: 0.2, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 2})
	if _, err := c.EvalERRevCtx(context.Background(), []int{0}, kernel.Options{}); err == nil {
		t.Fatal("expected error for short policy, got nil")
	}
}

// reachable restricts m to the states reachable from state 0 under any
// actions, renumbered in discovery order (state 0 stays first). Edges of
// probability zero into dropped states are dropped with them.
func reachable(m solve.Model) solve.Model {
	renum := make([]int, len(m))
	for s := range renum {
		renum[s] = -1
	}
	renum[0] = 0
	order := []int{0}
	for i := 0; i < len(order); i++ {
		for _, succ := range m[order[i]] {
			for _, tr := range succ {
				if tr.Prob > 0 && renum[tr.Dst] < 0 {
					renum[tr.Dst] = len(order)
					order = append(order, tr.Dst)
				}
			}
		}
	}
	sub := make(solve.Model, len(order))
	for s, old := range order {
		sub[s] = make([][]solve.Trans, len(m[old]))
		for a, succ := range m[old] {
			for _, tr := range succ {
				if tr.Dst = renum[tr.Dst]; tr.Dst >= 0 {
					sub[s][a] = append(sub[s][a], tr)
				}
			}
		}
	}
	return sub
}

// TestReachableSubmodelSameGain: restricting the attack MDP to its
// reachable states must not change the optimal mean payoff — the binary
// search operates on gains from the initial state.
func TestReachableSubmodelSameGain(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m := exact(t, mustModel(t, p))
	full, err := m.PolicyIteration(solve.Beta(0.35), 0)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	sub := reachable(m)
	if len(sub) > len(m) {
		t.Fatalf("reachable model larger than full: %d > %d", len(sub), len(m))
	}
	restricted, err := sub.PolicyIteration(solve.Beta(0.35), 0)
	if err != nil {
		t.Fatalf("restricted solve: %v", err)
	}
	if math.Abs(full.Gain-restricted.Gain) > 1e-7 {
		t.Errorf("gain changed under reachability restriction: %v vs %v", full.Gain, restricted.Gain)
	}
}
