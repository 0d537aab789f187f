// Package solve holds the exact mean-payoff reference for finite unichain
// MDPs: Howard policy iteration with gain/bias evaluation by a dense
// linear solve, and the exact evaluation of a fixed positional policy.
// Both are O(n³) and meant for small models. The analysis itself runs on
// the compiled value-iteration kernel of package kernel; the tests
// cross-check that kernel against this package's exact answers.
//
// All solvers assume the MDP is unichain: under every positional strategy
// the induced Markov chain has a single recurrent class, so the optimal
// gain is constant across states. The selfish-mining MDP of the paper has
// this property (from any state, d consecutive honest blocks lead back to
// the initial state).
package solve

import "errors"

// ErrNoConvergence is returned when a solver exhausts its iteration budget
// before reaching the requested precision.
var ErrNoConvergence = errors.New("solve: iteration limit reached before convergence")

// Result reports the outcome of an exact mean-payoff solve.
type Result struct {
	// Gain is the optimal gain g* = max_σ MP(σ).
	Gain float64
	// Policy is a gain-optimal positional strategy.
	Policy []int
	// Values is the bias vector of Policy, relative to the initial state.
	Values []float64
	// Iters is the number of policy-improvement rounds performed.
	Iters int
}
