// Package core implements the paper's primary contribution: the selfish
// mining attack on unpredictable efficient-proof-systems blockchains,
// formally modelled as a finite-state MDP (Section 3.2 of the paper).
//
// # State space
//
// A state is a triple (C, O, type):
//
//   - C is a d×f matrix; C[i][j] ∈ {0..l} is the length of the j-th private
//     fork rooted at the main-chain block at depth i (depth 1 = tip).
//   - O ∈ {honest, adversary}^(d-1) records the owners of the main-chain
//     blocks at depths 1..d-1 — exactly the blocks that a fork release can
//     still orphan. Blocks at depth ≥ d are permanent.
//   - type ∈ {mining, honest, adversary} distinguishes the probabilistic
//     mining phase from the adversary's decision points after a block is
//     found.
//
// # Decision-point semantics
//
// At type = honest, the freshly found honest block is *pending*: it has not
// yet landed on the main chain, and the adversary may race it by revealing
// a private fork in the same broadcast round (this is the γ-race). Choosing
// "mine" lets the pending block land, shifting the fork window. At
// type = adversary the adversary's new block has already been appended to
// its private fork (forks are private, so no broadcast race is possible —
// the paper notes a stale tie always loses). This "pending block" reading
// is required to reproduce the paper's experimental observations for
// d = f = 1 (γ-dependence and racing of a single withheld block); the
// paper's printed transition equations apply the honest block inside the
// mining transition, which would make d = 1 attacks γ-independent,
// contradicting Figure 2. The two readings agree on the reachable attack
// dynamics for d ≥ 2 up to re-indexing of fork rows.
//
// # Rewards
//
// A block pays reward at the moment it becomes permanent (its depth reaches
// d): +1 to the adversary counter r_A or the honest counter r_H. The β-family
// of scalar rewards of Section 3.3 is r_β = r_A − β(r_A + r_H); Algorithm 1
// binary-searches β for the zero of the optimal mean payoff.
//
// # Compilation onto the protocol-agnostic kernel
//
// Model implements kernel.Source: its transition kinds are indices into a
// probability-law table (Laws), so kernel.Compile (reached through
// families.Compile) flattens the state machine onto the shared flat-CSR
// mean-payoff kernel of package kernel — the same kernel every other
// registered attack-model family (package families) solves on. The kernel
// fans every value-iteration sweep out across worker goroutines with
// bitwise-identical results at any worker count, and its Clone support
// lets one compilation serve a whole pool of concurrent solvers (see
// selfishmining.SweepContext); the determinism argument lives with the
// kernel and package par. The tests' exact oracle (package solve)
// materializes the same Source.
package core

import (
	"fmt"
	"math"
)

// Params defines the attack MDP of Section 3.2.
type Params struct {
	// P is the adversary's fraction of the total mining resource, in [0, 1].
	P float64
	// Gamma is the switching probability: the chance honest miners adopt
	// the adversary's chain when a revealed fork ties the pending honest
	// block in a broadcast race. In [0, 1].
	Gamma float64
	// Depth d >= 1: the adversary forks on each of the last d main-chain blocks.
	Depth int
	// Forks f >= 1: private forks maintained per forked block.
	Forks int
	// MaxLen l >= 1: maximal private fork length (finiteness bound).
	MaxLen int
}

// MaxStates bounds the state-space sizes this package will materialize;
// (l+1)^(d·f) · 2^(d-1) · 3 must stay below it.
const MaxStates = 1 << 31

// Validate checks parameter ranges and that the induced state space is
// representable.
func (p Params) Validate() error {
	if p.P < 0 || p.P > 1 || math.IsNaN(p.P) {
		return fmt.Errorf("core: adversary resource P = %v outside [0, 1]", p.P)
	}
	if p.Gamma < 0 || p.Gamma > 1 || math.IsNaN(p.Gamma) {
		return fmt.Errorf("core: switching probability Gamma = %v outside [0, 1]", p.Gamma)
	}
	if p.Depth < 1 {
		return fmt.Errorf("core: attack depth d = %d, need >= 1", p.Depth)
	}
	if p.Forks < 1 {
		return fmt.Errorf("core: forking number f = %d, need >= 1", p.Forks)
	}
	if p.MaxLen < 1 {
		return fmt.Errorf("core: maximal fork length l = %d, need >= 1", p.MaxLen)
	}
	if n, ok := p.stateCount(); !ok {
		return fmt.Errorf("core: state space for d=%d f=%d l=%d exceeds %d states", p.Depth, p.Forks, p.MaxLen, MaxStates)
	} else if n <= 0 {
		return fmt.Errorf("core: degenerate state space size %d", n)
	}
	return nil
}

// stateCount returns 3 · (l+1)^(d·f) · 2^(d-1) and whether it fits MaxStates.
func (p Params) stateCount() (int, bool) {
	n := 3
	for i := 0; i < p.Depth-1; i++ {
		n *= 2
		if n > MaxStates {
			return 0, false
		}
	}
	for i := 0; i < p.Depth*p.Forks; i++ {
		n *= p.MaxLen + 1
		if n > MaxStates {
			return 0, false
		}
	}
	return n, true
}

// NumStates returns the size of the dense state space.
// Params must have been validated.
func (p Params) NumStates() int {
	n, _ := p.stateCount()
	return n
}

// MaxSigma is the largest possible number of concurrent adversary mining
// targets: every fork slot occupied, d·f.
func (p Params) MaxSigma() int { return p.Depth * p.Forks }

// BlockRate returns δ = (1−p)/(1−p+p·d·f), a lower bound on the per-step
// probability that the main chain (eventually) gains a permanent block; it
// lower-bounds |d MP*_β / dβ| and calibrates the solver precision needed for
// an ε-accurate binary search (see the proof of Theorem 3.1 in the paper).
func (p Params) BlockRate() float64 {
	return (1 - p.P) / (1 - p.P + p.P*float64(p.MaxSigma()))
}

func (p Params) String() string {
	return fmt.Sprintf("p=%g gamma=%g d=%d f=%d l=%d", p.P, p.Gamma, p.Depth, p.Forks, p.MaxLen)
}
