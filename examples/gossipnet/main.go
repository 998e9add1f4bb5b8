// Gossip network: the dynamics node by node. Every node keeps its own
// opinion and PRNG stream and, each synchronous round, pulls random
// peers' previous-round opinions. The demo runs 2-Choices on 400
// nodes three ways — clean, with 5% of the nodes crashed, and with 40%
// pull loss — showing that the protocol's self-stabilizing drift
// survives both fault models (at the price of extra rounds). Each
// scenario is one gossip-mode Experiment; the TrialResult carries the
// final histogram with the crashed nodes' frozen opinions.
package main

import (
	"fmt"
	"log"

	"plurality"
)

func main() {
	const (
		n = 400
		k = 4
	)
	base := plurality.Experiment{
		Mode:     plurality.ModeGossip,
		N:        n,
		Protocol: plurality.TwoChoices(),
		Init:     plurality.Balanced(k),
		Seed:     21,
	}

	fmt.Printf("gossip 2-Choices: %d nodes, %d opinions, balanced start\n\n", n, k)
	fmt.Printf("%-26s %-8s %-10s %-22s\n", "scenario", "rounds", "decided", "final counts")

	run := func(name string, mutate func(*plurality.Experiment)) {
		exp := base
		mutate(&exp)
		out, err := exp.Run()
		if err != nil {
			log.Fatal(err)
		}
		res := out.Trials[0]
		fmt.Printf("%-26s %-8.0f %-10v %v\n", name, res.Rounds, res.Consensus, res.FinalCounts)
	}

	run("clean", func(*plurality.Experiment) {})
	run("5% nodes crashed", func(exp *plurality.Experiment) {
		for id := 0; id < n/20; id++ {
			exp.Crashed = append(exp.Crashed, id*20)
		}
	})
	run("40% pull loss", func(exp *plurality.Experiment) {
		exp.LossProb = 0.4
	})

	fmt.Println("\ncrashed nodes stay frozen (their counts persist); loss only slows the race.")
}
