package plurality

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"plurality/internal/rng"
	"plurality/internal/trace"
)

// equivTrial is the mode-independent projection of one trial used by
// the equivalence matrix: every field the legacy entry points report.
type equivTrial struct {
	rounds      float64
	ticks       int64
	consensus   bool
	winner      int
	finalCounts string
	trace       string
}

func pointsString(pts []trace.Point) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%v;", p)
	}
	return b.String()
}

func countsString(counts []int64) string {
	return fmt.Sprint(counts)
}

// equivalenceCase drives one mode of the old-vs-new matrix: base holds
// the Experiment (mode, knobs), legacy runs trial i through the
// deprecated wrapper with the façade seed rng.DeriveSeed(Seed, i) and
// an optional caller-owned sampler — exactly how the wrappers document
// their streams.
type equivalenceCase struct {
	name   string
	base   Experiment
	legacy func(t *testing.T, facadeSeed uint64, sampler *trace.Sampler) equivTrial
}

func equivalenceCases() []equivalenceCase {
	syncCfg := Config{N: 3000, Protocol: ThreeMajority(), Init: Balanced(8)}
	asyncCfg := Config{N: 400, Protocol: TwoChoices(), Init: Balanced(4)}
	graphCfg := GraphConfig{N: 600, Topology: RandomRegularTopology(8), Protocol: ThreeMajority(), Init: Balanced(4)}
	gossipCfg := GossipConfig{N: 120, Protocol: Voter(), Init: Balanced(3), LossProb: 0.05, Crashed: []int{3, 7}}
	return []equivalenceCase{
		{
			name: "sync",
			base: Experiment{Mode: ModeSync, N: syncCfg.N, Protocol: syncCfg.Protocol, Init: syncCfg.Init, Seed: 11},
			legacy: func(t *testing.T, _ uint64, sampler *trace.Sampler) equivTrial {
				// Run(cfg) consumes DeriveSeed(cfg.Seed, 0) — the façade
				// seed of trial 0 — so it pins the sync mode's trial 0
				// here; trials beyond index 0 are pinned against
				// RunManyParallel in TestExperimentMatchesRunManyParallel.
				t.Helper()
				cfg := syncCfg
				cfg.Seed = 11
				cfg.Trace = sampler
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return equivTrial{rounds: float64(res.Rounds), consensus: res.Consensus, winner: res.Winner, trace: pointsString(sampler.Points())}
			},
		},
		{
			name: "async",
			base: Experiment{Mode: ModeAsync, N: asyncCfg.N, Protocol: asyncCfg.Protocol, Init: asyncCfg.Init, Seed: 12},
			legacy: func(t *testing.T, facadeSeed uint64, sampler *trace.Sampler) equivTrial {
				t.Helper()
				cfg := asyncCfg
				cfg.Seed = facadeSeed
				cfg.Trace = sampler
				res, err := RunAsync(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				return equivTrial{rounds: res.Rounds, ticks: res.Ticks, consensus: res.Consensus, winner: res.Winner, trace: pointsString(sampler.Points())}
			},
		},
		{
			name: "graph",
			base: Experiment{Mode: ModeGraph, N: int64(graphCfg.N), Topology: graphCfg.Topology, Protocol: graphCfg.Protocol, Init: graphCfg.Init, Seed: 13},
			legacy: func(t *testing.T, facadeSeed uint64, sampler *trace.Sampler) equivTrial {
				t.Helper()
				cfg := graphCfg
				cfg.Seed = facadeSeed
				cfg.Trace = sampler
				res, err := RunOnGraph(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return equivTrial{rounds: float64(res.Rounds), consensus: res.Consensus, winner: res.Winner, trace: pointsString(sampler.Points())}
			},
		},
		{
			name: "gossip",
			base: Experiment{Mode: ModeGossip, N: int64(gossipCfg.N), Protocol: gossipCfg.Protocol, Init: gossipCfg.Init, LossProb: gossipCfg.LossProb, Crashed: gossipCfg.Crashed, Seed: 14},
			legacy: func(t *testing.T, facadeSeed uint64, sampler *trace.Sampler) equivTrial {
				t.Helper()
				cfg := gossipCfg
				cfg.Seed = facadeSeed
				cfg.Trace = sampler
				res, err := RunGossip(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return equivTrial{rounds: float64(res.Rounds), consensus: res.Consensus, winner: res.Winner, finalCounts: countsString(res.FinalCounts), trace: pointsString(sampler.Points())}
			},
		},
	}
}

func experimentTrial(tr TrialResult) equivTrial {
	out := equivTrial{rounds: tr.Rounds, ticks: tr.Ticks, consensus: tr.Consensus, winner: tr.Winner, trace: pointsString(tr.Trace)}
	if tr.FinalCounts != nil {
		out.finalCounts = countsString(tr.FinalCounts)
	}
	return out
}

// TestExperimentEquivalenceMatrix is the old-vs-new contract for all
// four modes × {serial, parallel} × {untraced, traced}: every trial of
// an Experiment equals the deprecated wrapper invoked with the façade
// seed rng.DeriveSeed(Seed, i) (for sync, trial 0 of RunMany-style
// batches equals Run — the documented identity), traces included, and
// the Experiment output is identical for every Parallelism value.
func TestExperimentEquivalenceMatrix(t *testing.T) {
	spec := trace.Spec{Policy: trace.PolicyLog2}
	const trials = 3
	for _, tc := range equivalenceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Legacy reference, one wrapper call per trial (traced).
			want := make([]equivTrial, trials)
			for i := 0; i < trials; i++ {
				sampler := trace.NewSampler(spec, i)
				if tc.name == "sync" && i > 0 {
					// Run() only reproduces trial 0; trials 1.. of the
					// sync mode are covered by the RunManyParallel
					// comparison below.
					continue
				}
				want[i] = tc.legacy(t, rng.DeriveSeed(tc.base.Seed, uint64(i)), sampler)
			}

			for _, parallelism := range []int{1, 0} {
				for _, traced := range []bool{false, true} {
					e := tc.base
					e.NumTrials = trials
					e.Parallelism = parallelism
					if traced {
						e.Trace = &spec
					}
					out, err := e.Run()
					if err != nil {
						t.Fatalf("parallelism=%d traced=%v: %v", parallelism, traced, err)
					}
					if len(out.Trials) != trials {
						t.Fatalf("got %d trials", len(out.Trials))
					}
					for i, tr := range out.Trials {
						if tr.Trial != i || tr.Mode != tc.base.Mode {
							t.Fatalf("trial %d mislabeled: %+v", i, tr)
						}
						got := experimentTrial(tr)
						ref := want[i]
						if tc.name == "sync" && i > 0 {
							continue
						}
						if !traced {
							got.trace, ref.trace = "", ""
						}
						if got != ref {
							t.Fatalf("parallelism=%d traced=%v trial %d:\n got %+v\nwant %+v", parallelism, traced, i, got, ref)
						}
					}
				}
			}
		})
	}
}

// TestExperimentMatchesRunManyParallel pins the sync mode's multi-trial
// equivalence old-vs-new (trials beyond index 0, which the wrapper
// matrix above cannot reach through Run), serial and parallel, traced
// and untraced.
func TestExperimentMatchesRunManyParallel(t *testing.T) {
	cfg := Config{N: 2500, Protocol: TwoChoices(), Init: PlantedBias(8, 0.05), Seed: 21}
	const trials = 5
	spec := trace.Spec{Policy: trace.PolicyLog2}
	wantResults, wantTraces, err := RunManyTraced(cfg, trials, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 0} {
		for _, traced := range []bool{false, true} {
			e := cfg.experiment()
			e.NumTrials = trials
			e.Parallelism = parallelism
			if traced {
				e.Trace = &spec
			}
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range out.Trials {
				want := wantResults[i]
				if int(tr.Rounds) != want.Rounds || tr.Consensus != want.Consensus || tr.Winner != want.Winner {
					t.Fatalf("parallelism=%d trial %d: %+v vs legacy %+v", parallelism, i, tr, want)
				}
				if traced && pointsString(tr.Trace) != pointsString(wantTraces[i]) {
					t.Fatalf("parallelism=%d trial %d trace differs", parallelism, i)
				}
			}
		}
	}
}

// TestExperimentTrialsStreaming: the Trials iterator yields exactly
// Run's results, in index order, and an early break is clean.
func TestExperimentTrialsStreaming(t *testing.T) {
	e := Experiment{N: 2000, Protocol: ThreeMajority(), Init: Balanced(8), Seed: 5, NumTrials: 6}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.Trials()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, tr := range seq {
		if i != next {
			t.Fatalf("yielded index %d, want %d", i, next)
		}
		if experimentTrial(tr) != experimentTrial(out.Trials[i]) {
			t.Fatalf("trial %d: stream %+v vs run %+v", i, tr, out.Trials[i])
		}
		next++
	}
	if next != 6 {
		t.Fatalf("stream yielded %d trials", next)
	}
	// Early break: consume two trials and leave.
	seq, err = e.Trials()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range seq {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("break consumed %d trials", n)
	}
}

// TestExperimentValidation: per-mode knobs are rejected outside their
// mode, and the legacy error classes survive.
func TestExperimentValidation(t *testing.T) {
	valid := Experiment{N: 1000, Protocol: ThreeMajority(), Init: Balanced(4)}
	cases := []struct {
		name   string
		mutate func(*Experiment)
		want   string
	}{
		{"no protocol", func(e *Experiment) { e.Protocol = Protocol{} }, "Protocol"},
		{"no init", func(e *Experiment) { e.Init = Init{} }, "Init"},
		{"negative N", func(e *Experiment) { e.N = -1 }, "N"},
		{"negative trials", func(e *Experiment) { e.NumTrials = -2 }, "NumTrials"},
		{"ticks outside async", func(e *Experiment) { e.MaxTicks = 100 }, "MaxTicks"},
		{"gossip loss prob", func(e *Experiment) { e.Mode = ModeGossip; e.LossProb = 1.5 }, "LossProb"},
		{"gossip crashed id", func(e *Experiment) { e.Mode = ModeGossip; e.Crashed = []int{5000} }, "crashed id"},
		{"misshapen torus", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = TorusTopology(7) }, "torus"},
		{"misshapen hypercube", func(e *Experiment) { e.Mode = ModeGraph; e.Topology = HypercubeTopology(5) }, "hypercube"},
		{"random-regular shape", func(e *Experiment) { e.Mode = ModeGraph; e.N = 999; e.Topology = RandomRegularTopology(3) }, "RandomRegular"},
		{"NaN stop gamma", func(e *Experiment) { e.Stop = StopWhenGammaAtLeast(math.NaN()) }, "gamma"},
		{"adversary outside sync", func(e *Experiment) { e.Mode = ModeAsync; e.Adversary = HinderAdversary(5) }, "Adversary"},
		{"onround outside sync", func(e *Experiment) {
			e.Mode = ModeGossip
			e.OnRound = func(int, int, Snapshot) bool { return false }
		}, "OnRound"},
		{"topology outside graph", func(e *Experiment) { e.Topology = RingTopology(1) }, "Topology"},
		{"faults outside gossip", func(e *Experiment) { e.LossProb = 0.1 }, "LossProb"},
		{"missing topology", func(e *Experiment) { e.Mode = ModeGraph }, "Topology"},
		{"unknown mode", func(e *Experiment) { e.Mode = "quantum" }, "Mode"},
		{"bad stop spec", func(e *Experiment) { e.Stop = StopWhenGammaAtLeast(1.5) }, "gamma"},
		{"negative ticks", func(e *Experiment) { e.Mode = ModeAsync; e.MaxTicks = -1 }, "MaxTicks"},
		{"async protocol", func(e *Experiment) { e.Mode = ModeAsync; e.Protocol = Median() }, "asynchronous"},
		{"gossip protocol", func(e *Experiment) { e.Mode = ModeGossip; e.Protocol = HMajority(5) }, "gossip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := valid
			tc.mutate(&e)
			_, err := e.Run()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The valid base still runs, and a misshapen experiment fails
	// loudly from Trials too — before any trial is scheduled.
	if _, err := valid.Run(); err != nil {
		t.Fatal(err)
	}
	bad := valid
	bad.Mode = ModeGossip
	bad.LossProb = 1.5
	if _, err := bad.Trials(); err == nil {
		t.Fatal("Trials accepted an invalid experiment")
	}
}

// TestExperimentNegativeMaxRoundsIsDefault: the legacy entry points
// treated any non-positive round budget as the engine default; the
// unified path keeps that rather than erroring.
func TestExperimentNegativeMaxRoundsIsDefault(t *testing.T) {
	e := Experiment{N: 1000, Protocol: ThreeMajority(), Init: Balanced(4), Seed: 2, MaxRounds: -1}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trials[0].Consensus {
		t.Fatalf("negative MaxRounds did not fall back to the default budget: %+v", out.Trials[0])
	}
	legacy, err := Run(Config{N: 1000, Protocol: ThreeMajority(), Init: Balanced(4), Seed: 2, MaxRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(legacy.Rounds) != out.Trials[0].Rounds {
		t.Fatalf("legacy wrapper diverged on negative MaxRounds: %d vs %v", legacy.Rounds, out.Trials[0].Rounds)
	}
}

// TestStopAtConsensusRoundIsUniform: a condition that first holds at
// the consensus round itself (live <= 1 ⟺ consensus on the
// between-rounds states) reports Stopped AND Consensus in every mode
// that evaluates stops on the consensus round's boundary. (Async ends
// mid-round at the consensus tick, before the next boundary, so its
// Stopped flag legitimately stays false there.)
func TestStopAtConsensusRoundIsUniform(t *testing.T) {
	for _, base := range stopPropertyCases() {
		base := base
		if base.Mode == ModeAsync {
			continue
		}
		t.Run(string(base.Mode), func(t *testing.T) {
			t.Parallel()
			full := base
			full.Seed = 6
			fullOut, err := full.Run()
			if err != nil {
				t.Fatal(err)
			}
			e := base
			e.Seed = 6
			e.Stop = StopWhenLiveAtMost(1)
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := out.Trials[0]
			if !tr.Consensus || !tr.Stopped {
				t.Fatalf("consensus-round stop: %+v (want Consensus && Stopped)", tr)
			}
			if tr.Rounds != fullOut.Trials[0].Rounds || tr.Winner != fullOut.Trials[0].Winner {
				t.Fatalf("consensus-round stop changed the result: %+v vs %+v", tr, fullOut.Trials[0])
			}
		})
	}
}

// TestExperimentDefaults: zero-value knobs normalize to sync mode, one
// trial, and (async) the documented tick budget.
func TestExperimentDefaults(t *testing.T) {
	e := Experiment{N: 500, Protocol: Voter(), Init: Balanced(2), Seed: 3}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeSync || len(out.Trials) != 1 {
		t.Fatalf("defaults: %+v", out)
	}
	c, err := Experiment{Mode: ModeAsync, N: 10, Protocol: Voter(), Init: Balanced(2)}.compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.e.MaxTicks != DefaultMaxTicks {
		t.Fatalf("async MaxTicks default = %d", c.e.MaxTicks)
	}
}

// TestStopConditionCombinators: And keeps the stricter clauses and the
// zero value is consensus-only.
func TestStopConditionCombinators(t *testing.T) {
	c := StopWhenGammaAtLeast(0.3).And(StopWhenGammaAtLeast(0.5)).And(StopWhenLiveAtMost(4)).And(StopAfterRounds(10))
	s := c.Spec()
	if s.GammaAtLeast != 0.5 || s.LiveAtMost != 4 || s.AfterRounds != 10 {
		t.Fatalf("combined spec %+v", s)
	}
	if StopAtConsensus() != (StopCondition{}) {
		t.Fatal("StopAtConsensus is not the zero value")
	}
	if got := c.String(); got != "gamma>=0.5,live<=4,round>=10" {
		t.Fatalf("String = %q", got)
	}
}

// TestWorkerSplitClamps moves the memory-clamp contract to the
// Experiment scheduler: graph trial fan-out stays within the vertex
// and edge budgets, gossip fan-out within the node budget, and the
// leftover graph budget shards each run.
func TestWorkerSplitClamps(t *testing.T) {
	graphSplit := func(par, trials int, n int64, topo Topology) (int, int) {
		c := &compiled{e: Experiment{Mode: ModeGraph, N: n, NumTrials: trials, Topology: topo}}
		return c.workerSplit(par)
	}
	if tw, _ := graphSplit(32, 32, 16_000_000, CompleteTopology()); int64(tw)*16_000_000 > graphVertexBudget || tw < 1 {
		t.Fatalf("vertex budget violated: trial workers %d", tw)
	}
	// A dense mid-size topology (n·degree = 2^29 slots, ~2 GiB per
	// adjacency) is edge-bound: at most two concurrent builds.
	if tw, _ := graphSplit(64, 64, 1<<18, RandomRegularTopology(1<<11)); tw != 2 {
		t.Fatalf("dense adjacency fan-out = %d, want 2", tw)
	}
	if tw, gw := graphSplit(8, 4, 1000, RandomRegularTopology(8)); tw != 4 || gw != 2 {
		t.Fatalf("small graphs: trial workers %d (want 4), shard workers %d (want 2)", tw, gw)
	}
	if tw, _ := graphSplit(3, 100, 1000, RandomRegularTopology(8)); tw != 3 {
		t.Fatalf("parallelism still bounds fan-out: got %d, want 3", tw)
	}

	gossipSplit := func(par int, n int64) int {
		c := &compiled{e: Experiment{Mode: ModeGossip, N: n, NumTrials: 1 << 20}}
		tw, _ := c.workerSplit(par)
		return tw
	}
	if got := gossipSplit(32, 100_000); int64(got)*100_000 > gossipNodeBudget || got < 1 {
		t.Fatalf("gossip node budget violated: %d", got)
	}
	if got := gossipSplit(8, 100); got != 8 {
		t.Fatalf("small networks use the full budget: got %d", got)
	}
	if got := gossipSplit(1, 50); got != 1 {
		t.Fatalf("serial stays serial: got %d", got)
	}
}

// TestExperimentRunReportsTrialPanic: a panicking trial is not
// swallowed into a zero TrialResult; Run returns an error naming the
// lowest failing trial, for serial and parallel worker counts alike.
func TestExperimentRunReportsTrialPanic(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		out, err := Experiment{
			N:           200,
			Protocol:    ThreeMajority(),
			Init:        Balanced(2),
			NumTrials:   8,
			Seed:        1,
			Parallelism: parallelism,
			OnRound: func(trial, _ int, _ Snapshot) bool {
				if trial == 3 || trial == 5 {
					panic("poisoned hook")
				}
				return false
			},
		}.Run()
		if err == nil || !strings.Contains(err.Error(), "trial 3 panicked: poisoned hook") {
			t.Fatalf("parallelism %d: Run = %v, %v; want trial 3's panic", parallelism, out, err)
		}
	}
}
