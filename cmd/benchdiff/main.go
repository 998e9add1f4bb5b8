// Command benchdiff compares two conbench BENCH.json files and fails
// on performance regressions — the CI bench-regression gate.
//
// Usage:
//
//	benchdiff -baseline BENCH_BASELINE.json -current BENCH.json
//	          [-fail-pct 25] [-warn-pct 10] [-min-ns 1000000]
//
// For every suite in the baseline it computes the ns/op delta against
// the current record and prints one markdown table row (pipe stdout
// into $GITHUB_STEP_SUMMARY for the job summary). A suite slower by
// more than -fail-pct fails the run (exit 1); slower by more than
// -warn-pct warns; faster by more than -warn-pct is flagged as
// improved. Suites faster than -min-ns in the baseline are ignored
// (too noisy to gate on), suites missing from the current file fail
// (coverage loss), and suites only in the current file are listed as
// new. Above the table it prints both records' machine fingerprints
// (CPU model, CPU count, GOMAXPROCS) and one warning line when they
// differ or the baseline has none, since the deltas then measure the
// hardware as well as the code. Refresh the committed baseline with
// `make bench-baseline`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// benchRecord mirrors conbench's BENCH.json entries (the fields the
// diff consumes).
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// fingerprint is the machine a record was measured on; records written
// before conbench recorded it have the zero value.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (f fingerprint) String() string {
	if f == (fingerprint{}) {
		return "none recorded"
	}
	return fmt.Sprintf("%q, %d CPUs, GOMAXPROCS %d", f.CPUModel, f.NumCPU, f.GOMAXPROCS)
}

// benchFile mirrors conbench's BENCH.json schema.
type benchFile struct {
	GoVersion string `json:"go_version"`
	fingerprint
	Benchmarks []benchRecord `json:"benchmarks"`
}

func loadBench(path string) (benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchFile{}, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return benchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return benchFile{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		basePath = fs.String("baseline", "BENCH_BASELINE.json", "baseline BENCH.json")
		curPath  = fs.String("current", "BENCH.json", "current BENCH.json")
		failPct  = fs.Float64("fail-pct", 25, "fail when a suite is this % slower than baseline")
		warnPct  = fs.Float64("warn-pct", 10, "warn when a suite is this % slower than baseline")
		minNs    = fs.Float64("min-ns", 1_000_000, "ignore suites with baseline ns/op below this (noise floor)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failPct < *warnPct {
		return fmt.Errorf("fail-pct (%v) must be >= warn-pct (%v)", *failPct, *warnPct)
	}
	base, err := loadBench(*basePath)
	if err != nil {
		return err
	}
	cur, err := loadBench(*curPath)
	if err != nil {
		return err
	}
	curByName := make(map[string]benchRecord, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}

	fmt.Fprintf(out, "## Benchmark diff vs %s\n\n", *basePath)
	fmt.Fprintf(out, "Tolerance: fail > +%.0f%%, warn > +%.0f%%; suites under %.1fms ignored.\n\n", *failPct, *warnPct, *minNs/1e6)
	fmt.Fprintf(out, "Baseline machine: %s\n", base.fingerprint)
	fmt.Fprintf(out, "Current machine: %s\n", cur.fingerprint)
	if base.fingerprint == (fingerprint{}) || base.fingerprint != cur.fingerprint {
		fmt.Fprintln(out, "⚠️ The machines differ or the baseline has no fingerprint: deltas measure the hardware as well as the code.")
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| suite | baseline ns/op | current ns/op | Δ | status |")
	fmt.Fprintln(out, "|---|---:|---:|---:|---|")

	fails, warns := 0, 0
	seen := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			fails++
			fmt.Fprintf(out, "| %s | %.0f | — | — | ❌ missing from current run |\n", b.Name, b.NsPerOp)
			continue
		}
		delta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "✅ ok"
		switch {
		case b.NsPerOp < *minNs:
			status = "➖ below noise floor"
		case delta > *failPct:
			fails++
			status = "❌ regression"
		case delta > *warnPct:
			warns++
			status = "⚠️ slower"
		case delta < -*warnPct:
			status = "🚀 improved"
		}
		fmt.Fprintf(out, "| %s | %.0f | %.0f | %+.1f%% | %s |\n", b.Name, b.NsPerOp, c.NsPerOp, delta, status)
	}
	for _, c := range cur.Benchmarks {
		if !seen[c.Name] {
			fmt.Fprintf(out, "| %s | — | %.0f | — | 🆕 new (info) |\n", c.Name, c.NsPerOp)
		}
	}
	fmt.Fprintf(out, "\n%d suites compared, %d warnings, %d failures.\n", len(base.Benchmarks), warns, fails)
	if fails > 0 {
		return fmt.Errorf("%d suite(s) regressed beyond %.0f%% (or went missing)", fails, *failPct)
	}
	return nil
}
