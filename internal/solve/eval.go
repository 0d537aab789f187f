package solve

import (
	"fmt"

	"repro/internal/linalg"
)

// EvalPolicy returns the exact gain and bias (relative to state 0) of a
// fixed positional policy under reward r, by a dense linear solve on the
// Markov chain the policy induces. That chain must be unichain.
func (m Model) EvalPolicy(r Reward, policy []int) (gain float64, bias []float64, err error) {
	chain, rewards, err := m.induced(policy, r)
	if err != nil {
		return 0, nil, err
	}
	return linalg.GainBias(chain, rewards[0], 0)
}

// ERRev returns the exact expected relative revenue of a fixed positional
// policy,
//
//	ERRev(σ) = gain(r_A) / gain(r_A + r_H),
//
// from two dense gain solves on the unichain Markov chain the policy
// induces (the ratio form used in the proof of Theorem 3.1).
func (m Model) ERRev(policy []int) (float64, error) {
	chain, rewards, err := m.induced(policy,
		func(ra, _ float64) float64 { return ra },
		func(ra, rh float64) float64 { return ra + rh })
	if err != nil {
		return 0, err
	}
	var gain [2]float64
	for i, r := range rewards {
		if gain[i], _, err = linalg.GainBias(chain, r, 0); err != nil {
			return 0, err
		}
	}
	if gain[1] <= 0 {
		return 0, fmt.Errorf("solve: total block rate %v is not positive (degenerate chain)", gain[1])
	}
	return gain[0] / gain[1], nil
}

// induced returns the Markov chain policy induces on m and, for each
// reward, the expected one-step reward of every state.
func (m Model) induced(policy []int, rewards ...Reward) (*linalg.CSR, [][]float64, error) {
	n := len(m)
	if len(policy) != n {
		return nil, nil, fmt.Errorf("solve: policy covers %d states, model has %d", len(policy), n)
	}
	perState := make([][]float64, len(rewards))
	for i := range perState {
		perState[i] = make([]float64, n)
	}
	var entries []linalg.Entry
	for s, a := range policy {
		if a < 0 || a >= len(m[s]) {
			return nil, nil, fmt.Errorf("solve: policy selects action %d in state %d, which has %d actions", a, s, len(m[s]))
		}
		for _, tr := range m[s][a] {
			entries = append(entries, linalg.Entry{Row: s, Col: tr.Dst, Val: tr.Prob})
			for i, r := range rewards {
				perState[i][s] += tr.Prob * r(tr.RA, tr.RH)
			}
		}
	}
	chain, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		return nil, nil, err
	}
	return chain, perState, nil
}
