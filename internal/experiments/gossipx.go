package experiments

import (
	"plurality"
	"plurality/internal/stats"
	"plurality/internal/tablefmt"
)

// runGossip validates the node-by-node gossip execution against the
// count-space engine and quantifies the fault models the abstract
// chain cannot express: the consensus times of the per-node pull
// rounds must match the engine's on clean runs, and degrade gracefully
// under node crashes and pull loss.
func runGossip(opts Options) []tablefmt.Table {
	opts = opts.normalized()
	n := 300
	k := 4
	trials := 5
	maxRounds := 50_000
	if opts.Scale == Full {
		n = 1_000
		trials = 7
	}

	experiment := func(p plurality.Protocol, salt uint64) plurality.Experiment {
		return plurality.Experiment{
			Protocol:    p,
			N:           int64(n),
			Init:        plurality.Balanced(k),
			NumTrials:   trials,
			Seed:        opts.Seed*2221 + salt*131,
			Parallelism: opts.Parallelism,
		}
	}
	gossipMedian := func(p plurality.Protocol, crashed []int, loss float64, salt uint64) (float64, int) {
		e := experiment(p, salt)
		e.Mode = plurality.ModeGossip
		e.MaxRounds = maxRounds
		e.Crashed = crashed
		e.LossProb = loss
		times := convergedRounds(run(e))
		return stats.Median(times), len(times)
	}

	crossTable := tablefmt.Table{
		Title: "Gossip network vs count-space engine (clean runs, balanced start)",
		Notes: "the concurrent message-passing execution and the exact Markov-chain engine " +
			"simulate the same process; median consensus times must agree up to trial noise.",
		Columns: []string{"dynamics", "engine rounds med", "gossip rounds med", "ratio"},
	}
	for pi, p := range []plurality.Protocol{plurality.ThreeMajority(), plurality.TwoChoices()} {
		e := medianRounds(experiment(p, uint64(pi)))
		g, _ := gossipMedian(p, nil, 0, uint64(pi)+10)
		crossTable.AddRow(p.Name(), e, g, g/e)
	}

	faultTable := tablefmt.Table{
		Title: "Gossip 2-Choices under faults (balanced start)",
		Notes: "crashed nodes answer pulls with failures and never update; a lost pull makes the " +
			"puller keep its opinion for the round. Consensus is among alive nodes.",
		Columns: []string{"scenario", "converged", "median rounds"},
	}
	clean, conv := gossipMedian(plurality.TwoChoices(), nil, 0, 20)
	faultTable.AddRow("clean", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), clean)

	crashed := make([]int, 0, n/20)
	for id := 0; id < n; id += 20 {
		crashed = append(crashed, id)
	}
	withCrash, conv := gossipMedian(plurality.TwoChoices(), crashed, 0, 21)
	faultTable.AddRow("5% crashed", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), withCrash)

	withLoss, conv := gossipMedian(plurality.TwoChoices(), nil, 0.4, 22)
	faultTable.AddRow("40% pull loss", tablefmt.Cell(conv)+"/"+tablefmt.Cell(trials), withLoss)

	return []tablefmt.Table{crossTable, faultTable}
}
