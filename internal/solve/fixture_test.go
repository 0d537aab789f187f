package solve

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mdp"
)

// Besides the exact solvers themselves, the tests of this package check the
// compiled kernel's relative value iteration and policy evaluation against
// them on small hand-written MDPs.
//
// A fixture is one small MDP written once and solved both ways: compiled
// onto the kernel (it is a kernel.Source) and, under a chosen reward, as an
// mdp.Explicit for the exact solvers. Probabilities are multiples of 1/256,
// exact in the kernel's float32 table, and rewards are block counts
// (RA, RH), so both sides solve the same MDP.
type fixture [][][]fixTrans // [state][action] → successors

// fixTrans is one successor: destination, probability num/256, and the
// adversary/honest blocks the transition makes permanent.
type fixTrans struct {
	dst    int
	num    int
	ra, rh uint8
}

func (f fixture) NumStates() int                 { return len(f) }
func (f fixture) NumActions(s int) int           { return len(f[s]) }
func (f fixture) BlockRate(_, _ float64) float64 { return 1 }

// Laws resolves law 0 to σ/256 and law 1 to certainty (σ is 8 bits wide).
func (f fixture) Laws() []kernel.ProbLaw {
	return []kernel.ProbLaw{
		func(_, _ float64, sigma int) float64 { return float64(sigma) / 256 },
		func(_, _ float64, _ int) float64 { return 1 },
	}
}

func (f fixture) RawTransitions(s, a int, buf []kernel.Raw) []kernel.Raw {
	for _, tr := range f[s][a] {
		r := kernel.Raw{Dst: tr.dst, RA: tr.ra, RH: tr.rh}
		if tr.num == 256 {
			r.Kind = 1
		} else {
			r.Sigma = uint8(tr.num)
		}
		buf = append(buf, r)
	}
	return buf
}

// explicitWith returns the fixture as an mdp.Explicit whose transition
// rewards are reward(RA, RH).
func (f fixture) explicitWith(reward func(ra, rh float64) float64) *mdp.Explicit {
	choices := make([][]mdp.Choice, len(f))
	for s, acts := range f {
		for _, succ := range acts {
			var c mdp.Choice
			for _, tr := range succ {
				c.Succ = append(c.Succ, mdp.Transition{
					Dst:    tr.dst,
					Prob:   float64(tr.num) / 256,
					Reward: reward(float64(tr.ra), float64(tr.rh)),
				})
			}
			choices[s] = append(choices[s], c)
		}
	}
	return &mdp.Explicit{Init: 0, Choices: choices}
}

// explicit returns the fixture under the kernel's β-view reward
// r_β = RA − β(RA + RH).
func (f fixture) explicit(beta float64) *mdp.Explicit {
	return f.explicitWith(func(ra, rh float64) float64 { return ra - beta*(ra+rh) })
}

// compile compiles the fixture onto the kernel (its laws ignore p and γ).
func (f fixture) compile(t *testing.T) *kernel.Compiled {
	t.Helper()
	c, err := kernel.Compile(f, 0.5, 0.5)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// sure is a certain transition.
func sure(dst int, ra, rh uint8) []fixTrans { return []fixTrans{{dst, 256, ra, rh}} }

// chooseLoop is one state with two self-loop actions: "low" pays an honest
// block, "high" an adversary block. At β = 0.3 their rewards are −0.3 and
// 0.7, so the optimal gain is 0.7 by action 1.
func chooseLoop() fixture {
	return fixture{{sure(0, 0, 1), sure(0, 1, 0)}}
}

// stayOrCycle: state 0 may self-loop or enter a 2-cycle through state 1.
// At β = 0.5 the rewards are 0.5 (stay), then 0 and 2 around the cycle
// (average 1), so the optimal gain is 1 by action 1.
func stayOrCycle() fixture {
	return fixture{
		{sure(0, 2, 1), sure(1, 1, 1)},
		{sure(0, 5, 1)},
	}
}

// randomUnichain builds a random fixture where every action sends 1/8 of
// its probability to state 0, forcing a single recurrent class.
func randomUnichain(r *rand.Rand, n, maxActions int) fixture {
	f := make(fixture, n)
	for s := range f {
		na := 1 + r.Intn(maxActions)
		for a := 0; a < na; a++ {
			k := 51 + r.Intn(128)
			block := func() uint8 { return uint8(r.Intn(4)) }
			f[s] = append(f[s], []fixTrans{
				{0, 32, block(), block()},
				{r.Intn(n), k, block(), block()},
				{r.Intn(n), 224 - k, block(), block()},
			})
		}
	}
	return f
}
