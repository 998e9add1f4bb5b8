package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name string, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{"benchmarks":[
	{"name":"suite_a","ns_per_op":100000000},
	{"name":"suite_b","ns_per_op":200000000},
	{"name":"suite_tiny","ns_per_op":1000}
]}`

func diff(t *testing.T, current string, extra ...string) (string, error) {
	t.Helper()
	args := append([]string{
		"-baseline", writeBench(t, "base.json", baseline),
		"-current", writeBench(t, "cur.json", current),
	}, extra...)
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

func TestOkWithinTolerance(t *testing.T) {
	out, err := diff(t, `{"benchmarks":[
		{"name":"suite_a","ns_per_op":105000000},
		{"name":"suite_b","ns_per_op":195000000},
		{"name":"suite_tiny","ns_per_op":99000}
	]}`)
	if err != nil {
		t.Fatalf("within-tolerance diff failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "✅ ok") || strings.Contains(out, "❌") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// The 99x-slower tiny suite sits below the noise floor and must not
	// trip the gate.
	if !strings.Contains(out, "➖ below noise floor") {
		t.Fatalf("noise floor not applied:\n%s", out)
	}
}

func TestFailOnRegression(t *testing.T) {
	out, err := diff(t, `{"benchmarks":[
		{"name":"suite_a","ns_per_op":130000000},
		{"name":"suite_b","ns_per_op":200000000},
		{"name":"suite_tiny","ns_per_op":1000}
	]}`)
	if err == nil {
		t.Fatalf("30%% regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "❌ regression") {
		t.Fatalf("missing regression marker:\n%s", out)
	}
}

func TestWarnBetweenBands(t *testing.T) {
	out, err := diff(t, `{"benchmarks":[
		{"name":"suite_a","ns_per_op":115000000},
		{"name":"suite_b","ns_per_op":200000000},
		{"name":"suite_tiny","ns_per_op":1000}
	]}`)
	if err != nil {
		t.Fatalf("warn-band diff failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "⚠️ slower") || !strings.Contains(out, "1 warnings, 0 failures") {
		t.Fatalf("missing warning:\n%s", out)
	}
}

func TestMissingSuiteFails(t *testing.T) {
	out, err := diff(t, `{"benchmarks":[
		{"name":"suite_a","ns_per_op":100000000},
		{"name":"suite_tiny","ns_per_op":1000}
	]}`)
	if err == nil {
		t.Fatalf("missing suite passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "missing from current run") {
		t.Fatalf("missing-suite marker absent:\n%s", out)
	}
}

func TestNewSuiteAndImprovement(t *testing.T) {
	out, err := diff(t, `{"benchmarks":[
		{"name":"suite_a","ns_per_op":50000000},
		{"name":"suite_b","ns_per_op":200000000},
		{"name":"suite_tiny","ns_per_op":1000},
		{"name":"suite_new","ns_per_op":300000000}
	]}`)
	if err != nil {
		t.Fatalf("improvement diff failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "🚀 improved") || !strings.Contains(out, "🆕 new (info)") {
		t.Fatalf("markers absent:\n%s", out)
	}
	// New-in-current suites are informational: they must never count
	// toward the failure total.
	if !strings.Contains(out, "0 failures") {
		t.Fatalf("new suite counted as failure:\n%s", out)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := diff(t, `{"benchmarks":[]}`); err == nil {
		t.Fatal("empty current accepted")
	}
	if _, err := diff(t, `not json`); err == nil {
		t.Fatal("bad JSON accepted")
	}
	var out strings.Builder
	if err := run([]string{"-baseline", "/nonexistent.json"}, &out); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if err := run([]string{"-fail-pct", "5", "-warn-pct", "10"}, &out); err == nil {
		t.Fatal("fail-pct < warn-pct accepted")
	}
}

// TestFingerprintWarning: both machine fingerprints are printed, and one
// warning line appears when they differ or the baseline has none.
func TestFingerprintWarning(t *testing.T) {
	const suites = `"benchmarks":[
		{"name":"suite_a","ns_per_op":100000000},
		{"name":"suite_b","ns_per_op":200000000},
		{"name":"suite_tiny","ns_per_op":1000}
	]}`
	const xeon2 = `{"cpu_model":"Xeon","num_cpu":2,"gomaxprocs":2,`
	cases := []struct {
		name, base, cur string
		warn            bool
	}{
		{"same machine", xeon2, xeon2, false},
		{"baseline has none", `{`, xeon2, true},
		{"both have none", `{`, `{`, true},
		{"other core count", `{"cpu_model":"Xeon","num_cpu":1,"gomaxprocs":1,`, xeon2, true},
		{"other cpu", `{"cpu_model":"EPYC","num_cpu":2,"gomaxprocs":2,`, xeon2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{
				"-baseline", writeBench(t, "base.json", c.base+suites),
				"-current", writeBench(t, "cur.json", c.cur+suites),
			}, &out)
			if err != nil {
				t.Fatalf("diff failed: %v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "Baseline machine: ") || !strings.Contains(out.String(), "Current machine: ") {
				t.Fatalf("fingerprints not printed:\n%s", out.String())
			}
			if c.cur == xeon2 && !strings.Contains(out.String(), `Current machine: "Xeon", 2 CPUs, GOMAXPROCS 2`) {
				t.Fatalf("fingerprint not rendered:\n%s", out.String())
			}
			if got := strings.Count(out.String(), "⚠️ The machines differ"); got != map[bool]int{false: 0, true: 1}[c.warn] {
				t.Fatalf("%d warning lines, want warn=%v:\n%s", got, c.warn, out.String())
			}
		})
	}
}
