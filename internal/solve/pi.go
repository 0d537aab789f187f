package solve

import (
	"fmt"
	"math"
)

// PolicyIteration runs Howard's policy iteration under reward r, from
// action 0 everywhere, with exact gain/bias evaluation by EvalPolicy. It is
// exact up to linear-algebra round-off and serves as an independent
// cross-check of the compiled kernel's value iteration. maxIter ≤ 0 means
// 1000 rounds.
func (m Model) PolicyIteration(r Reward, maxIter int) (*Result, error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	policy := make([]int, len(m))
	const improveTol = 1e-10
	for iter := 1; iter <= maxIter; iter++ {
		gain, bias, err := m.EvalPolicy(r, policy)
		if err != nil {
			return nil, fmt.Errorf("solve: evaluating policy: %w", err)
		}
		improved := false
		for s, acts := range m {
			bestQ := math.Inf(-1)
			bestA := policy[s]
			var curQ float64
			for a, succ := range acts {
				var q float64
				for _, tr := range succ {
					q += tr.Prob * (r(tr.RA, tr.RH) + bias[tr.Dst])
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
