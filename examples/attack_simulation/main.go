// Attack simulation: replay the computed ε-optimal strategy on the
// physical blockchain substrate and watch the attack degrade chain quality
// in a concrete block tree.
//
// The simulator maintains a real block tree (package chain) alongside the
// MDP mirror and audits, throughout the run, that the formal model's
// reward accounting matches main-chain ownership — so this example doubles
// as an end-to-end consistency demonstration between the paper's MDP and
// longest-chain semantics.
//
//	go run ./examples/attack_simulation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/selfishmining"
)

func main() {
	log.SetFlags(0)
	params := selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.75, Depth: 2, Forks: 2, MaxForkLen: 4,
	}
	fmt.Printf("analyzing %v...\n", params)
	res, err := selfishmining.AnalyzeContext(context.Background(), params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated strategy ERRev: %.4f (bound %.4f)\n\n", res.StrategyERRev, res.ERRev)

	for _, steps := range []int{10000, 100000, 1000000} {
		st, err := res.Simulate(steps, 2024)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d steps: ERRev %.4f +- %.4f | chain %6d blocks | %5d releases | %4d/%4d races won | %5d honest orphaned\n",
			steps, st.ERRev, st.StdErr, st.ChainLength, st.Releases, st.RaceWins, st.Races, st.Orphaned)
	}
	fmt.Println("\nThe empirical relative revenue converges to the evaluated strategy ERRev,")
	fmt.Println("and every run passes the tree-vs-MDP ledger audit.")
}
