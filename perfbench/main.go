// Command perfbench is the end-to-end benchmark of the conserve
// service. It starts cmd/conserve as a child process (a 3-node fleet
// for cluster-sweep), drives it over loopback from this one process
// with a seeded closed-loop request mix, checks every answer, and
// prints every metric by name and unit. With -trace 1 it also replays
// the same requests in-process through the handler path with a span
// around each layer call, and prints the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds both binaries first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer, or counters
// that disagree with what was sent, make the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "paper-sweep, serve-hot, agent-modes or cluster-sweep")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = fs.Int("seconds", 12, "length of the timed window")
		traceOn  = fs.Int("trace", 0, "1 adds the traced in-process replay and prints the per-layer metrics")
		bin      = fs.String("conserve", "", "conserve binary to benchmark")
		work     = fs.String("work", ".bench_build/perfbench-work", "directory for logs, data dirs, span files and run records")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -conserve, -seconds >= 1 and -trace 0|1")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	runDir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceOn))
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &Env{Bin: *bin, Work: runDir, Seed: *seed, Seconds: *seconds, Conns: nproc, Procs: nproc,
		Log: func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }}
	rep, err := Bench(ctx, env, *workload, *traceOn == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Print(os.Stdout)
	if err := rep.Save(filepath.Join(runDir, "record.json.gz")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect answers:", strings.Join(rep.Problems, "; "))
		return 1
	}
	return 0
}

// Bench runs one workload: the loopback phase, and with traced the
// in-process replays and kernel probes.
func Bench(ctx context.Context, env *Env, workload string, traced bool, work string) (*Report, error) {
	plan, err := PlanFor(workload, env.Seed, env.Conns)
	if err != nil {
		return nil, err
	}
	fp, err := Fingerprint(env)
	if err != nil {
		return nil, err
	}
	rep := &Report{Workload: workload, Traced: traced, Fingerprint: fp}
	// Data dirs are large and only needed during the run; logs, the
	// record and the span file stay.
	defer func() {
		dirs, _ := filepath.Glob(filepath.Join(env.Work, "data*"))
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	chk := NewChecker()
	t0 := time.Now()
	ph, err := RunPhase(ctx, env, workload, plan, chk, traced)
	if err != nil {
		return nil, err
	}
	rep.Phase = ph
	rep.Attempted, rep.Failed = ph.Loop.Attempted(), ph.Loop.Failed()
	rep.Problems = append(rep.Problems, ph.CheckErrors...)
	for _, s := range ph.Loop.Samples {
		if s.Failed != "" && len(rep.Problems) < 20 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s op (conn %d, step %d): %s", s.Class, s.Conn, s.Step, s.Failed))
		}
	}
	if ph.Loop.Digest == "" {
		rep.Problems = append(rep.Problems, "the digest window did not complete")
	} else if prev, err := recordDigest(filepath.Join(work, "digests.json"), fmt.Sprintf("%s/%d/%s", workload, env.Seed, fp.SourceDigest), ph.Loop.Digest); err != nil {
		return nil, err
	} else if prev != "" && prev != ph.Loop.Digest {
		rep.Problems = append(rep.Problems, fmt.Sprintf("digest %s differs from an earlier run of the same seed and source (%s)", ph.Loop.Digest, prev))
	}
	env.Log("loopback phase done in %.1fs", time.Since(t0).Seconds())

	if !traced {
		rep.Metrics = EndToEnd(workload, ph)
	} else {
		if err := rep.traced(ctx, env, workload, plan, chk); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, nil
}

// traced runs the in-process replays (tracing off, then on, half the
// window each, over the same requests) and the kernel probes, and
// derives the per-layer metrics.
func (rep *Report) traced(ctx context.Context, env *Env, workload string, plan *Plan, chk *Checker) error {
	filled := ""
	if workload == "serve-hot" {
		filled = filepath.Join(env.Work, "data-filled")
	}
	half := time.Duration(env.Seconds) * time.Second / 2
	off, err := RunReplay(ctx, env, plan, chk, NewRecorder(false), filled, half)
	if err != nil {
		return err
	}
	rec := NewRecorder(true)
	on, err := RunReplay(ctx, env, plan, chk, rec, filled, half)
	if err != nil {
		return err
	}
	for _, r := range []*Replay{off, on} {
		rep.Failed += r.Loop.Failed()
		rep.Attempted += r.Loop.Attempted()
		for _, s := range r.Loop.Samples {
			if s.Failed != "" && len(rep.Problems) < 20 {
				rep.Problems = append(rep.Problems, fmt.Sprintf("in-process %s op (step %d): %s", s.Class, s.Step, s.Failed))
			}
		}
		if r.Loop.Digest != "" && r.Loop.Digest != rep.Phase.Loop.Digest {
			rep.Problems = append(rep.Problems, "in-process digest differs from the served one")
		}
	}
	kernel, err := ProbeKernel(ctx, rec, kernelProbes(workload, plan))
	if err != nil {
		return err
	}
	analytic, err := ProbeAnalytic(analyticProbes(plan))
	if err != nil {
		return err
	}
	spans := rec.Spans()
	rep.Layers = SelfTimes(spans)
	rep.Metrics = PerLayer(rep.Phase, off, on, spans, kernel, analytic)
	rep.SpanFile = filepath.Join(env.Work, "spans.ndjson.gz")
	return rec.WriteFile(rep.SpanFile)
}
