package solve

import (
	"repro/internal/linalg"
	"repro/internal/mdp"
)

// EvalPolicyExact computes the exact gain and bias of a fixed positional
// policy via a dense linear solve on the induced Markov chain. Intended for
// small and medium models; the model must be unichain under the policy.
func EvalPolicyExact(m mdp.Model, policy []int) (gain float64, bias []float64, err error) {
	chain, rewards, err := mdp.InducedChain(m, policy)
	if err != nil {
		return 0, nil, err
	}
	return linalg.GainBias(chain, rewards, m.Initial())
}
