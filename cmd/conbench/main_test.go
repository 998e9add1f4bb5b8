package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-run", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-run", "fig1", "-scale", "huge"}); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("missing -run accepted")
	}
}

func TestRunExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	// lem55 is the fastest experiment.
	if err := run([]string{"-run", "lem55", "-csv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "lem55_*.csv"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no CSV written: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunCommaSeparatedIDs(t *testing.T) {
	if err := run([]string{"-run", "lem52,lem55"}); err != nil {
		t.Fatalf("comma-separated run: %v", err)
	}
}

func TestJSONBenchmarkRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	// One iteration keeps the suite to a few full runs; the point here
	// is the record format, not statistical stability.
	if err := run([]string{"-json", path, "-benchn", "1"}); err != nil {
		t.Fatalf("-json: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("BENCH.json is not valid JSON: %v", err)
	}
	if got.GeneratedAt == "" || got.GoVersion == "" || got.GOOS == "" || got.GOARCH == "" {
		t.Fatalf("missing metadata: %+v", got)
	}
	if got.NumCPU != runtime.NumCPU() || got.GOMAXPROCS != runtime.GOMAXPROCS(0) || got.CPUModel != cpuModel() {
		t.Fatalf("fingerprint %q/%d/%d, want %q/%d/%d", got.CPUModel, got.NumCPU, got.GOMAXPROCS,
			cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if len(got.Benchmarks) != len(benchSuite()) {
		t.Fatalf("%d benchmark records, want %d", len(got.Benchmarks), len(benchSuite()))
	}
	seen := map[string]bool{}
	for _, rec := range got.Benchmarks {
		if rec.Name == "" || seen[rec.Name] {
			t.Fatalf("bad or duplicate benchmark name in %+v", rec)
		}
		seen[rec.Name] = true
		if rec.Iterations != 1 || rec.NsPerOp <= 0 {
			t.Fatalf("implausible record: %+v", rec)
		}
	}
	if !seen["run_three_majority_many_opinions_k_eq_n_1e5"] {
		t.Fatal("many-opinions benchmark missing from the suite")
	}
}

func TestJSONRejectsBadBenchn(t *testing.T) {
	if err := run([]string{"-json", filepath.Join(t.TempDir(), "b.json"), "-benchn", "0"}); err == nil {
		t.Fatal("benchn=0 accepted")
	}
}

func TestCPUModel(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo on this platform")
	}
	got := cpuModel()
	if strings.Contains(string(data), "model name") != (got != "") {
		t.Fatalf("cpuModel() = %q for a cpuinfo with model name = %v", got, strings.Contains(string(data), "model name"))
	}
	if got != "" && !strings.Contains(string(data), got) {
		t.Fatalf("cpuModel() = %q is not in /proc/cpuinfo", got)
	}
}
