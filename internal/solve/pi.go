package solve

import (
	"fmt"
	"math"

	"repro/internal/mdp"
)

// PolicyIteration runs Howard's policy iteration with exact gain/bias
// evaluation via a dense linear solve. It is exact up to linear-algebra
// round-off and intended for small and medium models (the dense solve is
// O(n^3)); it serves as an independent cross-check of the compiled
// kernel's value iteration.
//
// The model must be unichain: every positional strategy must induce a chain
// with a single recurrent class (so the gain is a scalar).
func PolicyIteration(m mdp.Model, maxIter int) (*Result, error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	n := m.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("solve: model has no states")
	}
	policy := make([]int, n)
	var buf []mdp.Transition
	const improveTol = 1e-10

	var (
		gain float64
		bias []float64
		err  error
	)
	for iter := 1; iter <= maxIter; iter++ {
		gain, bias, err = EvalPolicyExact(m, policy)
		if err != nil {
			return nil, fmt.Errorf("solve: evaluating policy: %w", err)
		}
		improved := false
		for s := 0; s < n; s++ {
			bestQ := math.Inf(-1)
			bestA := policy[s]
			var curQ float64
			for a := 0; a < m.NumActions(s); a++ {
				buf = m.Transitions(s, a, buf[:0])
				var q float64
				for _, tr := range buf {
					q += tr.Prob * (tr.Reward + bias[tr.Dst])
				}
				if a == policy[s] {
					curQ = q
				}
				if q > bestQ {
					bestQ, bestA = q, a
				}
			}
			if bestA != policy[s] && bestQ > curQ+improveTol {
				policy[s] = bestA
				improved = true
			}
		}
		if !improved {
			return &Result{Gain: gain, Policy: policy, Values: bias, Iters: iter}, nil
		}
	}
	return nil, fmt.Errorf("%w: policy iteration did not stabilize in %d rounds", ErrNoConvergence, maxIter)
}
