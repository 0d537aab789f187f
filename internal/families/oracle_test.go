package families

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/solve"
)

// oracleShapes is the small (Depth, Forks, MaxLen) shape at which the exact
// oracle checks each family. A new family needs an entry here.
var oracleShapes = map[string][3]int{
	"fork":       {2, 1, 3}, // 96 states
	"nakamoto":   {1, 1, 8}, // 243 states
	"singletree": {1, 3, 3}, // 67 states
}

// TestEveryFamilyAgreesWithPolicyIteration holds Algorithm 1 on every
// registered family to the exact oracle of package solve, run on the same
// kernel.Source the family compiles: Howard policy iteration must find
// MP*_β ≥ 0 at the certified lower end and ≤ 0 at the upper end, and the
// exact stationary ERRev of the extracted strategy must lie in the bracket
// (widened by ε) and match the kernel's evaluation of it within 1e-5 (that
// evaluation is off by up to 1.6e-6 on these shapes, more than the fork
// tests' 1e-6).
func TestEveryFamilyAgreesWithPolicyIteration(t *testing.T) {
	const eps = 1e-4
	for _, fam := range All() {
		shape, ok := oracleShapes[fam.Name()]
		if !ok {
			t.Errorf("family %q has no oracle shape", fam.Name())
			continue
		}
		for _, gamma := range []float64{0, 0.5, 1} {
			for _, p := range []float64{0.1, 0.3} {
				params := core.Params{P: p, Gamma: gamma, Depth: shape[0], Forks: shape[1], MaxLen: shape[2]}
				t.Run(fam.Name()+" "+params.String(), func(t *testing.T) {
					c, err := Compile(fam.Name(), params)
					if err != nil {
						t.Fatalf("Compile: %v", err)
					}
					res, err := analysis.Analyze(t.Context(), c, analysis.Options{Epsilon: eps})
					if err != nil {
						t.Fatalf("Analyze: %v", err)
					}
					src, err := fam.Source(params)
					if err != nil {
						t.Fatalf("Source: %v", err)
					}
					m, err := solve.Materialize(src, p, gamma)
					if err != nil {
						t.Fatalf("Materialize: %v", err)
					}
					mpStar := func(beta float64) float64 {
						t.Helper()
						pi, err := m.PolicyIteration(solve.Beta(beta), 0)
						if err != nil {
							t.Fatalf("PolicyIteration(beta=%v): %v", beta, err)
						}
						return pi.Gain
					}
					if g := mpStar(res.ERRev); g < -1e-9 {
						t.Errorf("PI MP* at the lower end %v is %v, want >= 0", res.ERRev, g)
					}
					if g := mpStar(res.BetaUp); g > 1e-9 {
						t.Errorf("PI MP* at the upper end %v is %v, want <= 0", res.BetaUp, g)
					}
					exact, err := m.ERRev(res.Strategy)
					if err != nil {
						t.Fatalf("ERRev: %v", err)
					}
					if exact < res.ERRev-eps || exact > res.BetaUp+eps {
						t.Errorf("exact strategy ERRev %v outside the certified bracket [%v, %v]", exact, res.ERRev, res.BetaUp)
					}
					if math.Abs(exact-res.StrategyERRev) > 1e-5 {
						t.Errorf("strategy ERRev: kernel %v, exact %v", res.StrategyERRev, exact)
					}
				})
			}
		}
	}
}
