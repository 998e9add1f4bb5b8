package sim

import (
	"strings"
	"sync/atomic"
	"testing"

	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
)

func balancedInit(n int64, k int) func(int) *population.Vector {
	return func(int) *population.Vector { return population.Balanced(n, k) }
}

func TestRunManyBasics(t *testing.T) {
	spec := Spec{
		Protocol: core.ThreeMajority{},
		Init:     balancedInit(1000, 4),
		Trials:   8,
		Seed:     1,
	}
	results := RunMany(spec)
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Trial != i {
			t.Fatalf("result %d has trial %d", i, res.Trial)
		}
		if !res.Consensus {
			t.Fatalf("trial %d did not converge", i)
		}
		if res.Winner < 0 || res.Winner >= 4 {
			t.Fatalf("trial %d winner %d out of range", i, res.Winner)
		}
	}
	times, err := ConsensusTimes(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 8 {
		t.Fatalf("times = %v", times)
	}
}

func TestRunManyDeterministicAcrossParallelism(t *testing.T) {
	mk := func(par int) []TrialResult {
		return RunMany(Spec{
			Protocol:    core.TwoChoices{},
			Init:        balancedInit(500, 4),
			Trials:      6,
			Seed:        42,
			Parallelism: par,
		})
	}
	serial := mk(1)
	parallel := mk(4)
	for i := range serial {
		if serial[i].Rounds != parallel[i].Rounds || serial[i].Winner != parallel[i].Winner {
			t.Fatalf("trial %d differs across parallelism: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRunManySeedSensitivity(t *testing.T) {
	a := RunMany(Spec{Protocol: core.ThreeMajority{}, Init: balancedInit(2000, 8), Trials: 4, Seed: 1})
	b := RunMany(Spec{Protocol: core.ThreeMajority{}, Init: balancedInit(2000, 8), Trials: 4, Seed: 2})
	same := true
	for i := range a {
		if a[i].Rounds != b[i].Rounds {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical round counts across all trials")
	}
}

func TestRunManyPanicsWithoutRequiredFields(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for missing fields")
		}
	}()
	RunMany(Spec{})
}

// TestRunManyPanicsOnTrialPanic: a panicking trial is not swallowed
// into a zero TrialResult; RunMany re-panics naming the lowest failing
// trial, for serial and parallel worker counts alike.
func TestRunManyPanicsOnTrialPanic(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		func() {
			defer func() {
				p := recover()
				err, ok := p.(error)
				if !ok || !strings.Contains(err.Error(), "trial 3 panicked: poisoned init") {
					t.Fatalf("parallelism %d: recovered %v, want trial 3's panic", parallelism, p)
				}
			}()
			RunMany(Spec{
				Protocol: core.ThreeMajority{},
				Init: func(trial int) *population.Vector {
					if trial == 3 || trial == 5 {
						panic("poisoned init")
					}
					return population.Balanced(200, 2)
				},
				Trials:      8,
				Seed:        1,
				Parallelism: parallelism,
			})
		}()
	}
}

func TestRunManyDefaultsToOneTrial(t *testing.T) {
	results := RunMany(Spec{Protocol: core.ThreeMajority{}, Init: balancedInit(200, 2), Seed: 3})
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestConsensusTimesFailsOnTruncatedTrial(t *testing.T) {
	results := RunMany(Spec{
		Protocol:  core.TwoChoices{},
		Init:      balancedInit(100000, 64),
		Trials:    2,
		Seed:      4,
		MaxRounds: 2,
	})
	if _, err := ConsensusTimes(results); err == nil {
		t.Fatal("expected error for non-converged trials")
	}
}

func TestWinnerFractions(t *testing.T) {
	results := []TrialResult{
		{Trial: 0, RunResult: core.RunResult{Consensus: true, Winner: 0}},
		{Trial: 1, RunResult: core.RunResult{Consensus: true, Winner: 0}},
		{Trial: 2, RunResult: core.RunResult{Consensus: true, Winner: 1}},
		{Trial: 3, RunResult: core.RunResult{Consensus: false, Winner: 2}},
	}
	fracs := WinnerFractions(results, 3)
	if fracs[0] != 2.0/3 || fracs[1] != 1.0/3 || fracs[2] != 0 {
		t.Fatalf("fracs = %v", fracs)
	}
	if CountConverged(results) != 3 {
		t.Fatal("CountConverged wrong")
	}
	empty := WinnerFractions(nil, 2)
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatal("empty fractions non-zero")
	}
}

func TestObservePerTrial(t *testing.T) {
	var calls int64
	RunMany(Spec{
		Protocol: core.ThreeMajority{},
		Init:     balancedInit(500, 4),
		Trials:   3,
		Seed:     5,
		Observe: func(trial int) func(int, *population.Vector) bool {
			return func(round int, v *population.Vector) bool {
				atomic.AddInt64(&calls, 1)
				return false
			}
		},
	})
	if calls == 0 {
		t.Fatal("observer never called")
	}
}

func TestCustomDoneThroughSpec(t *testing.T) {
	target := 0.5
	results := RunMany(Spec{
		Protocol: core.ThreeMajority{},
		Init:     balancedInit(10000, 50),
		Trials:   3,
		Seed:     6,
		Done:     func(v *population.Vector) bool { return v.Gamma() >= target },
	})
	for _, res := range results {
		if !res.Consensus {
			t.Fatal("gamma target not reached")
		}
	}
}

func TestTrajectoryRecords(t *testing.T) {
	tr := &Trajectory{}
	obs := tr.Observer()
	r := rng.New(7)
	v := population.Balanced(1000, 4)
	core.Run(r, core.ThreeMajority{}, v, core.RunConfig{Observer: obs})
	if len(tr.Rounds) < 2 {
		t.Fatalf("trajectory too short: %d", len(tr.Rounds))
	}
	if tr.Rounds[0] != 0 || tr.Gamma[0] != 0.25 {
		t.Fatalf("initial record wrong: round=%d γ=%v", tr.Rounds[0], tr.Gamma[0])
	}
	last := len(tr.Gamma) - 1
	if tr.Gamma[last] != 1 || tr.Live[last] != 1 || tr.MaxAlpha[last] != 1 {
		t.Fatalf("final record should be consensus: γ=%v live=%d max=%v",
			tr.Gamma[last], tr.Live[last], tr.MaxAlpha[last])
	}
	if tr.GammaHitTime(0.9) < 0 {
		t.Fatal("gamma hit time not found")
	}
	if tr.GammaHitTime(0.25) != 0 {
		t.Fatal("gamma hit time for initial value should be 0")
	}
	if tr.GammaHitTime(2) != -1 {
		t.Fatal("impossible threshold should give -1")
	}
}

func TestTrajectorySubsampling(t *testing.T) {
	tr := &Trajectory{Every: 5}
	obs := tr.Observer()
	v := population.Balanced(100, 2)
	for round := 0; round <= 20; round++ {
		obs(round, v)
	}
	if len(tr.Rounds) != 5 { // rounds 0,5,10,15,20
		t.Fatalf("recorded %d rounds: %v", len(tr.Rounds), tr.Rounds)
	}
}
