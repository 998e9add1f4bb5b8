package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plurality"
)

// mustPanicWith runs f and fails unless it panics with a message
// containing want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("recovered %v, want a panic containing %q", p, want)
		}
	}()
	f()
}

// TestHitTimesPanicsOnTruncatedTrial: trials cut by the round budget
// are never averaged into a time statistic, nor are trials that
// converged before their condition held; the panic names the first
// such trial.
func TestHitTimesPanicsOnTruncatedTrial(t *testing.T) {
	trials := run(plurality.Experiment{
		Protocol:  plurality.TwoChoices(),
		N:         100_000,
		Init:      plurality.Balanced(64),
		NumTrials: 2,
		Seed:      4,
		MaxRounds: 2,
	})
	mustPanicWith(t, "trial 0 ended after 2 rounds without reaching its endpoint", func() {
		hitTimes(trials, nil)
	})
	trials[0].Stopped = true
	trials[1].Consensus = true
	if got := hitTimes(trials, nil); !reflect.DeepEqual(got, []float64{2, 2}) {
		t.Fatalf("hitTimes = %v, want [2 2]", got)
	}
	mustPanicWith(t, "trial 1 ", func() { hitTimes(trials, []bool{true, false}) })
	if got := hitTimes(trials, []bool{true, true}); !reflect.DeepEqual(got, []float64{2, 2}) {
		t.Fatalf("hitTimes = %v, want [2 2]", got)
	}
}

// TestWeakVanishTimes pins lem52's summary: a vanish is a time, a
// consensus on the weak opinion is a weak win (and no time), and a
// trial that did neither panics naming it.
func TestWeakVanishTimes(t *testing.T) {
	const weak = 5
	trials := []plurality.TrialResult{
		{Trial: 0, Rounds: 12, Winner: 0},                  // weak vanished mid-run
		{Trial: 1, Rounds: 40, Consensus: true, Winner: 5}, // weak won
		{Trial: 2, Rounds: 30, Consensus: true, Winner: 2}, // vanished at consensus
	}
	vanished := []bool{true, false, true, false}
	times, wins := weakVanishTimes(trials, vanished, weak)
	if !reflect.DeepEqual(times, []float64{12, 30}) || wins != 1 {
		t.Fatalf("weakVanishTimes = %v, %d; want [12 30], 1", times, wins)
	}
	trials = append(trials, plurality.TrialResult{Trial: 3, Rounds: 50, Winner: 0})
	mustPanicWith(t, "trial 3 ", func() { weakVanishTimes(trials, vanished, weak) })
}
