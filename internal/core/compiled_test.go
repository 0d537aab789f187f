package core

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mdp"
	"repro/internal/solve"
)

func mustCompile(t *testing.T, p Params) *Compiled {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	return c
}

// exactPolicyGain is the exact mean payoff of a fixed policy on a generic
// mdp.Model, from the stationary distribution of the induced chain.
func exactPolicyGain(t *testing.T, m mdp.Model, policy []int) float64 {
	t.Helper()
	chain, rewards, err := mdp.InducedChain(m, policy)
	if err != nil {
		t.Fatalf("InducedChain: %v", err)
	}
	pi, err := linalg.Stationary(chain, linalg.StationaryOptions{})
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	var g float64
	for s := range pi {
		g += pi[s] * rewards[s]
	}
	return g
}

// TestCompiledMatchesGenericGain is the central compiled-path cross-check:
// over several configurations and β values, the compiled mean payoff must
// equal the optimal gain that exact policy iteration finds on the generic
// interface-based model, and the compiled solve's greedy strategy must
// attain that optimum on the generic model.
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
			m := mustModel(t, p)
			m.SetMode(RewardBeta)
			c := mustCompile(t, p)
			for _, beta := range []float64{0.1, 0.35, 0.6} {
				m.SetBeta(beta)
				want, err := solve.PolicyIteration(m, 0)
				if err != nil {
					t.Fatalf("policy iteration: %v", err)
				}
				got, err := c.MeanPayoff(beta, CompiledOptions{Tol: 1e-9})
				if err != nil {
					t.Fatalf("compiled solve: %v", err)
				}
				if math.Abs(got.Gain-want.Gain) > 1e-6 {
					t.Errorf("beta=%v: compiled gain %v, PI gain %v", beta, got.Gain, want.Gain)
				}
				if g := exactPolicyGain(t, m, c.GreedyPolicy(beta)); math.Abs(g-want.Gain) > 1e-6 {
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
	got, err := c.MeanPayoff(0.3, CompiledOptions{Tol: 1e-9})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	fresh := mustCompile(t, Params{P: 0.3, Gamma: 0.75, Depth: 2, Forks: 1, MaxLen: 3})
	want, err := fresh.MeanPayoff(0.3, CompiledOptions{Tol: 1e-9})
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
// evaluation on the generic model.
func TestCompiledGreedyPolicyEval(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	c := mustCompile(t, p)
	if _, err := c.MeanPayoff(0.35, CompiledOptions{Tol: 1e-9}); err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	policy := c.GreedyPolicy(0.35)
	got, err := c.EvalERRev(policy, CompiledOptions{Tol: 1e-9})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	m := mustModel(t, p)
	want, err := ERRevOfPolicy(m, policy)
	if err != nil {
		t.Fatalf("ERRevOfPolicy: %v", err)
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
	cold, err := c.MeanPayoff(0.4, CompiledOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := c.MeanPayoff(0.4, CompiledOptions{Tol: 1e-8, KeepValues: true})
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
	if _, err := c.EvalERRev([]int{0}, CompiledOptions{}); err == nil {
		t.Fatal("expected error for short policy, got nil")
	}
}

// TestReachableSubmodelSameGain: restricting the attack MDP to its
// reachable states (via mdp.Materialize) must not change the optimal mean
// payoff — the binary search operates on gains from the initial state.
func TestReachableSubmodelSameGain(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m := mustModel(t, p)
	m.SetMode(RewardBeta)
	m.SetBeta(0.35)
	full, err := solve.PolicyIteration(m, 0)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	sub, err := mdp.Materialize(m, true)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if sub.NumStates() > m.NumStates() {
		t.Fatalf("reachable model larger than full: %d > %d", sub.NumStates(), m.NumStates())
	}
	restricted, err := solve.PolicyIteration(sub, 0)
	if err != nil {
		t.Fatalf("restricted solve: %v", err)
	}
	if math.Abs(full.Gain-restricted.Gain) > 1e-7 {
		t.Errorf("gain changed under reachability restriction: %v vs %v", full.Gain, restricted.Gain)
	}
}
