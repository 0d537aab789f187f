// Package solve is the exact mean-payoff oracle the tests hold the
// compiled kernel to: Howard policy iteration with gain/bias evaluation by
// a dense linear solve, the exact evaluation of a fixed positional policy,
// and the exact expected relative revenue of a policy (a ratio of two
// gains, each from a dense solve). It reads the
// kernel.Source every model family hands to kernel.Compile, materialized
// at concrete chain parameters, so every family gets the same exact check.
// The dense solves are O(n³) and meant for small models; no shipped binary
// links this package.
//
// The oracle assumes the MDP is unichain: under every positional strategy
// the induced Markov chain has a single recurrent class, so the optimal
// gain is constant across states. The selfish-mining MDPs of the paper
// have this property (from any state, d consecutive honest blocks lead
// back to the initial state).
package solve

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
)

// ErrNoConvergence is returned when policy iteration exhausts its round
// budget before the policy stabilizes.
var ErrNoConvergence = errors.New("solve: iteration limit reached before convergence")

// Result reports the outcome of an exact mean-payoff solve.
type Result struct {
	// Gain is the optimal gain g* = max_σ MP(σ).
	Gain float64
	// Policy is a gain-optimal positional strategy.
	Policy []int
	// Values is the bias vector of Policy, relative to state 0.
	Values []float64
	// Iters is the number of policy-improvement rounds performed.
	Iters int
}

// Trans is one successor of a state-action pair at concrete chain
// parameters: its destination, its probability, and the adversary and
// honest blocks it makes permanent.
type Trans struct {
	Dst    int
	Prob   float64
	RA, RH float64
}

// Model is a kernel.Source materialized at concrete chain parameters:
// Model[s][a] lists the successors of action a in state s. State 0 is the
// initial state, as in kernel.Source.
type Model [][][]Trans

// Reward maps a transition's permanent-block counts to a scalar reward.
type Reward func(ra, rh float64) float64

// Beta is the paper's Section 3.3 reward r_β = r_A − β(r_A + r_H), the
// reward the kernel's mean-payoff solve at β maximizes.
func Beta(beta float64) Reward {
	return func(ra, rh float64) float64 { return ra - beta*(ra+rh) }
}

// Materialize resolves every raw transition of src through src.Laws() at
// chain parameters (p, γ) in float64. It rejects a source with no states,
// a state with no action, an action with no successor, a destination out
// of range, a law index beyond the law table, a negative or non-finite
// probability, and an action whose probabilities miss 1 by more than 1e-9.
func Materialize(src kernel.Source, p, gamma float64) (Model, error) {
	n := src.NumStates()
	if n <= 0 {
		return nil, fmt.Errorf("solve: source has %d states", n)
	}
	laws := src.Laws()
	m := make(Model, n)
	var buf []kernel.Raw
	for s := range m {
		na := src.NumActions(s)
		if na <= 0 {
			return nil, fmt.Errorf("solve: state %d has no actions", s)
		}
		m[s] = make([][]Trans, na)
		for a := range m[s] {
			buf = src.RawTransitions(s, a, buf[:0])
			if len(buf) == 0 {
				return nil, fmt.Errorf("solve: state %d action %d has no successors", s, a)
			}
			succ := make([]Trans, len(buf))
			var sum float64
			for i, r := range buf {
				if r.Dst < 0 || r.Dst >= n {
					return nil, fmt.Errorf("solve: state %d action %d: destination %d out of range [0,%d)", s, a, r.Dst, n)
				}
				if int(r.Kind) >= len(laws) {
					return nil, fmt.Errorf("solve: state %d action %d: law %d beyond the %d-law table", s, a, r.Kind, len(laws))
				}
				pr := laws[r.Kind](p, gamma, int(r.Sigma))
				if !(pr >= 0) || math.IsInf(pr, 1) {
					return nil, fmt.Errorf("solve: state %d action %d: probability %v is negative or not finite", s, a, pr)
				}
				sum += pr
				succ[i] = Trans{Dst: r.Dst, Prob: pr, RA: float64(r.RA), RH: float64(r.RH)}
			}
			if math.Abs(sum-1) > 1e-9 {
				return nil, fmt.Errorf("solve: state %d action %d: probabilities sum to %v, want 1", s, a, sum)
			}
			m[s][a] = succ
		}
	}
	return m, nil
}
