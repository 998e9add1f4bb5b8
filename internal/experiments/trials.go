package experiments

import (
	"fmt"

	"plurality"
	"plurality/internal/stats"
)

// run executes an experiment's trials. Driver inputs are fixed, so a
// validation error is a bug in the driver and panics.
func run(e plurality.Experiment) []plurality.TrialResult {
	out, err := e.Run()
	if err != nil {
		panic(err)
	}
	return out.Trials
}

// hitTimes returns the round counts of trials that reached their
// endpoint: the condition marked in hit (indexed by trial) when hit is
// non-nil, otherwise consensus or the Stop condition. A trial that
// ended anywhere else — cut by the round budget, or converged before
// its condition held — would silently bias the statistic, so hitTimes
// panics naming it.
func hitTimes(trials []plurality.TrialResult, hit []bool) []float64 {
	times := make([]float64, 0, len(trials))
	for _, tr := range trials {
		reached := tr.Consensus || tr.Stopped
		if hit != nil {
			reached = hit[tr.Trial]
		}
		if !reached {
			panic(fmt.Sprintf("experiments: trial %d ended after %v rounds without reaching its endpoint", tr.Trial, tr.Rounds))
		}
		times = append(times, tr.Rounds)
	}
	return times
}

// medianRounds runs the experiment and returns the median round count
// of its trials (see hitTimes).
func medianRounds(e plurality.Experiment) float64 {
	return stats.Median(hitTimes(run(e), nil))
}

// convergedRounds returns the round counts of the trials that reached
// consensus, dropping those cut by the round budget.
func convergedRounds(trials []plurality.TrialResult) []float64 {
	times := make([]float64, 0, len(trials))
	for _, tr := range trials {
		if tr.Consensus {
			times = append(times, tr.Rounds)
		}
	}
	return times
}
