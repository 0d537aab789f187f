package baseline

import (
	"fmt"
	"math"
)

// EyalSirerClosedForm returns the relative revenue of the classic SM1
// selfish-mining strategy on a proof-of-work chain, as published in
// Eyal & Sirer, "Majority is not Enough: Bitcoin Mining is Vulnerable"
// (equation (8) with α = p and the γ tie-breaking parameter):
//
//	R = ( p(1−p)²(4p + γ(1−2p)) − p³ ) / ( 1 − p(1 + (2−p)p) )
//
// It serves as an independent published anchor: the tests hold an explicit
// stationary analysis of the SM1 chain to it.
func EyalSirerClosedForm(p, gamma float64) (float64, error) {
	if p < 0 || p >= 0.5 || math.IsNaN(p) {
		return 0, fmt.Errorf("baseline: SM1 closed form needs p in [0, 0.5), got %v", p)
	}
	if gamma < 0 || gamma > 1 || math.IsNaN(gamma) {
		return 0, fmt.Errorf("baseline: gamma = %v outside [0, 1]", gamma)
	}
	num := p*(1-p)*(1-p)*(4*p+gamma*(1-2*p)) - p*p*p
	den := 1 - p*(1+(2-p)*p)
	return num / den, nil
}
