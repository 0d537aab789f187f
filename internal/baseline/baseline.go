// Package baseline implements the two baselines of the paper's evaluation
// (Section 4) plus a classical validation anchor:
//
//  1. Honest mining: the strategy that extends only the leading block of
//     the main chain; its expected relative revenue is exactly p.
//  2. Single-tree selfish mining: the direct extension of the classic
//     Bitcoin attack of Eyal–Sirer to efficient proof systems — the
//     adversary grows one private tree (of bounded depth l and width f)
//     rooted at the fork point and publishes its longest path when the
//     public chain catches up with the tree depth, triggering a γ-race.
//     Because the strategy is fixed, the system is a Markov chain. It is
//     explored once per shape with symbolic transition laws and evaluated
//     exactly at each (p, γ) by the renewal-reward theorem: the chain
//     regenerates at the empty tree, and every other transition adds a
//     block, so one backward pass over the explored order gives the
//     expected rewards of a cycle.
//  3. Classic Eyal–Sirer SM1 on proof of work, as the closed-form revenue
//     formula published in "Majority is not Enough"; the tests hold an
//     explicit stationary analysis of the SM1 chain to it.
package baseline

import (
	"fmt"
	"math"
)

// HonestERRev returns the expected relative revenue of honest mining with a
// p fraction of the resource. Honest participation wins each block race
// with probability exactly p (the (p,1)-mining race against the (1−p,1)
// rest), and every won block joins the main chain permanently, so the
// long-run block ratio is p.
func HonestERRev(p float64) (float64, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("baseline: resource fraction p = %v outside [0, 1]", p)
	}
	return p, nil
}
