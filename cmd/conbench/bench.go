package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"plurality"
	"plurality/internal/service"
	"plurality/internal/stop"
)

// benchCase is one entry of the reference performance suite: a full
// consensus run at a fixed operating point, repeated benchn times.
// The suite pins the two regimes the engine optimizes for — dense
// small-k (live ≈ k ≪ n, conditional-binomial path) and sparse
// many-opinions (k up to n, per-trial and grouped paths) — so a
// regression on either hot path shows up as a ns/op jump in BENCH.json
// (see DESIGN.md).
type benchCase struct {
	Name string
	Run  func(seed uint64) error
	// PerOp divides the measured ns/allocs/bytes before recording
	// (0 = 1): the _batchN suites run N trials per Run call but report
	// per-trial numbers, directly comparable to their serial twins.
	PerOp int
}

// consensusRun executes one full run through the shared service layer
// (the same service.Execute path the conserve server and consim -json
// use), so BENCH.json tracks what a served request actually costs —
// engine plus canonicalisation/summary overhead.
func consensusRun(n int64, k int, protocol string) func(seed uint64) error {
	return func(seed uint64) error {
		resp, err := service.Execute(service.Request{
			Protocol: protocol,
			N:        n,
			K:        k,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		if resp.Summary.Converged != resp.Summary.Trials {
			return fmt.Errorf("run did not reach consensus")
		}
		return nil
	}
}

// modeConsensusRun executes a full multi-trial request through
// service.ExecuteParallel at a fixed parallelism budget (0 =
// GOMAXPROCS). Paired _par1/_parmax cases measure the same workload —
// responses are byte-identical by the determinism contract — so their
// ns/op ratio in BENCH.json is the recorded multi-core speedup of the
// trial scheduler and the sharded graph rounds.
func modeConsensusRun(q service.Request, parallelism int) func(seed uint64) error {
	return func(seed uint64) error {
		q := q
		q.Seed = seed
		resp, err := service.ExecuteParallel(q, parallelism)
		if err != nil {
			return err
		}
		if resp.Summary.Converged != resp.Summary.Trials {
			return fmt.Errorf("only %d/%d trials reached consensus", resp.Summary.Converged, resp.Summary.Trials)
		}
		return nil
	}
}

// stoppedRun executes one request expected to end at its stop
// condition rather than consensus — the hitting-time workload the
// unified API serves directly. Paired with the full-consensus case of
// the same shape, the ns/op ratio in BENCH.json records how much an
// early-stopped run saves.
func stoppedRun(n int64, k int, protocol string, spec stop.Spec) func(seed uint64) error {
	return func(seed uint64) error {
		resp, err := service.Execute(service.Request{
			Protocol: protocol,
			N:        n,
			K:        k,
			Seed:     seed,
			Stop:     &spec,
		})
		if err != nil {
			return err
		}
		if resp.Summary.Converged != 0 {
			return fmt.Errorf("stopped run reached consensus before the boundary")
		}
		if resp.Summary.MaxRounds <= 0 {
			return fmt.Errorf("stopped run recorded no rounds")
		}
		return nil
	}
}

// batchConsensusRun executes one trials-wide batch through
// plurality.Experiment directly — the sync batch executor, bypassing
// the service layer's per-request canonicalisation so the recorded
// allocs/op are the executor's own. Paired with the serial suite of
// the same shape (divided per trial via PerOp), the ns/op ratio in
// BENCH.json is the recorded batch-kernel speedup: shared per-config
// tables plus multi-core trial fan-out.
func batchConsensusRun(n int64, k, trials int, proto plurality.Protocol) func(seed uint64) error {
	return func(seed uint64) error {
		out, err := plurality.Experiment{
			N:         n,
			Protocol:  proto,
			Init:      plurality.Balanced(k),
			Seed:      seed,
			NumTrials: trials,
		}.Run()
		if err != nil {
			return err
		}
		if out.Converged() != trials {
			return fmt.Errorf("only %d/%d trials reached consensus", out.Converged(), trials)
		}
		return nil
	}
}

func benchSuite() []benchCase {
	// The non-sync suites: a multi-trial workload per mode, measured
	// serial and at full parallelism. The graph pair additionally has a
	// lone-big-job case, where all the speedup must come from sharded
	// rounds (trials=1 leaves trial fan-out nothing to do).
	graphTrials := service.Request{Protocol: "3-majority", Mode: "graph", N: 100_000, K: 8, Trials: 8}
	graphLone := service.Request{Protocol: "3-majority", Mode: "graph", N: 1_000_000, K: 2, Trials: 1}
	asyncTrials := service.Request{Protocol: "3-majority", Mode: "async", N: 20_000, K: 8, Trials: 8}
	gossipTrials := service.Request{Protocol: "3-majority", Mode: "gossip", N: 2_000, K: 4, Trials: 8}
	// The stopgamma pair: the voter suite below, stopped at the
	// Γ >= 1/2 phase boundary. The driftless voter spends ~70% of its
	// rounds in the two-opinion endgame random walk past that boundary
	// (cheap O(live≈2) rounds, so ~20% of wall time), and the stopped
	// twin must cost strictly less than the full run it prefixes —
	// the recorded ratio is what a hitting-time workload saves by not
	// simulating the endgame. (Drift protocols like 3-Majority cross
	// Γ = 1/2 only rounds before consensus on balanced starts, so a
	// stopped twin there would measure nothing but noise.)
	gammaHalf := stop.Spec{GammaAtLeast: 0.5}
	return []benchCase{
		{"run_three_majority_n1e6_k100", consensusRun(1_000_000, 100, "3-majority"), 0},
		{"run_two_choices_n1e6_k100", consensusRun(1_000_000, 100, "2-choices"), 0},
		{"run_voter_n1e5_k64_stopgamma", stoppedRun(100_000, 64, "voter", gammaHalf), 0},
		{"run_three_majority_many_opinions_k_eq_n_1e5", consensusRun(100_000, 100_000, "3-majority"), 0},
		{"run_two_choices_many_opinions_k_eq_n_1e4", consensusRun(10_000, 10_000, "2-choices"), 0},
		// The _batch8 twins of the two many-opinions suites: 8 trials
		// per op through the sync batch executor at full parallelism,
		// recorded per trial (PerOp).
		{"run_three_majority_many_opinions_k_eq_n_1e5_batch8",
			batchConsensusRun(100_000, 100_000, 8, plurality.ThreeMajority()), 8},
		{"run_two_choices_many_opinions_k_eq_n_1e4_batch8",
			batchConsensusRun(10_000, 10_000, 8, plurality.TwoChoices()), 8},
		{"run_voter_n1e5_k64", consensusRun(100_000, 64, "voter"), 0},
		{"run_graph_complete_n1e5_k8_t8_par1", modeConsensusRun(graphTrials, 1), 0},
		{"run_graph_complete_n1e5_k8_t8_parmax", modeConsensusRun(graphTrials, 0), 0},
		{"run_graph_complete_n1e6_k2_t1_par1", modeConsensusRun(graphLone, 1), 0},
		{"run_graph_complete_n1e6_k2_t1_parmax", modeConsensusRun(graphLone, 0), 0},
		{"run_async_3majority_n2e4_k8_t8_par1", modeConsensusRun(asyncTrials, 1), 0},
		{"run_async_3majority_n2e4_k8_t8_parmax", modeConsensusRun(asyncTrials, 0), 0},
		{"run_gossip_3majority_n2e3_k4_t8_par1", modeConsensusRun(gossipTrials, 1), 0},
		{"run_gossip_3majority_n2e3_k4_t8_parmax", modeConsensusRun(gossipTrials, 0), 0},
	}
}

// benchRecord is one benchmark's measurement in BENCH.json.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// benchFile is the BENCH.json schema. CPUModel, NumCPU and GOMAXPROCS
// fingerprint the machine, so a diff can tell a code change from a
// hardware change.
type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	CPUModel    string        `json:"cpu_model"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Benchmarks  []benchRecord `json:"benchmarks"`
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "" where
// that file is absent or has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// measure runs fn iters times and reports wall time and allocations
// per iteration, using the monotonic runtime allocation counters the
// same way testing.B does.
func measure(c benchCase, iters int) (benchRecord, error) {
	// One untimed warm-up run grows the reusable buffers so the
	// steady-state allocation profile is measured.
	if err := c.Run(0xbe9c); err != nil {
		return benchRecord{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := c.Run(uint64(i + 1)); err != nil {
			return benchRecord{}, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	div := uint64(iters)
	if c.PerOp > 1 {
		div *= uint64(c.PerOp)
	}
	return benchRecord{
		Name:        c.Name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(div),
		AllocsPerOp: (after.Mallocs - before.Mallocs) / div,
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / div,
	}, nil
}

// writeBenchJSON runs the suite and writes the JSON record.
func writeBenchJSON(path string, iters int) error {
	if iters < 1 {
		return fmt.Errorf("benchn must be >= 1, got %d", iters)
	}
	// Fail on an unwritable path before spending minutes on the suite.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	f.Close()
	out := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, c := range benchSuite() {
		rec, err := measure(c, iters)
		if err != nil {
			return err
		}
		fmt.Printf("%-45s %12.0f ns/op %8d allocs/op %10d B/op\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
		out.Benchmarks = append(out.Benchmarks, rec)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
