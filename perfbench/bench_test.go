package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"plurality/internal/service"
)

var workloads = []string{"paper-sweep", "serve-hot", "agent-modes", "cluster-sweep"}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := PlanFor(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := PlanFor(w, 7, 2)
		other, _ := PlanFor(w, 8, 2)
		if !reflect.DeepEqual(a.Fill, b.Fill) {
			t.Errorf("%s: fill differs between two plans of seed 7", w)
		}
		differs := false
		for conn := 0; conn < a.Conns; conn++ {
			for step := 0; step < 60; step++ {
				x, y := a.Next(conn, step), b.Next(conn, step)
				if !reflect.DeepEqual(x, y) {
					t.Fatalf("%s: conn %d step %d differs between two plans of seed 7", w, conn, step)
				}
				if string(x.Body) != string(other.Next(conn, step).Body) {
					differs = true
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	// Every sweep point is a valid request, and every join step sends
	// the same body on both connections.
	p := ServeHotPlan(3, 2)
	joins := 0
	for step := 0; step < 2000; step++ {
		a, b := p.Next(0, step), p.Next(1, step)
		if (a.Class == ClassJoin) != (b.Class == ClassJoin) {
			t.Fatalf("step %d: only one connection joins", step)
		}
		if a.Class == ClassJoin {
			joins++
			if string(a.Body) != string(b.Body) || a.Trials == 0 || b.Trials != 0 {
				t.Fatalf("step %d: join partners differ or count trials twice", step)
			}
		}
		if err := a.Req.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if joins == 0 {
		t.Fatal("no join steps in 2000")
	}
	sweep := PaperSweepPlan(1).Next(0, 0)
	if sweep.Class != ClassSweep || len(sweep.Points) != 7 || sweep.Trials != 21 {
		t.Fatalf("first paper-sweep op: class %s, %d points, %d trials", sweep.Class, len(sweep.Points), sweep.Trials)
	}
	fetch := PaperSweepPlan(1).Next(0, 1)
	if fetch.Class != ClassFetch || fetch.Ref == nil || fetch.Ref.Step != 0 || fetch.Key != sweep.Points[fetch.Ref.Index].Key() {
		t.Fatalf("second paper-sweep op does not fetch a point of the first: %+v", fetch.Ref)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if v, beyond := Percentile(xs, 99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := Percentile(xs[:100], 50); beyond != 50 || v < 1 {
		t.Fatalf("p50 of 100 samples: %g with %d beyond", v, beyond)
	}
	// The fixed table keeps ten samples beyond each tail at the
	// smallest sample counts the workloads reach in a 15 s window.
	for w, counts := range map[string]map[string]int{
		"serve-hot":     {"all": 60000, "hit": 58000, "cold": 1500},
		"paper-sweep":   {"all": 140, "hit": 112, "cold": 28},
		"agent-modes":   {"all": 150, "hit": 120, "cold": 30},
		"cluster-sweep": {"all": 400, "hit": 320, "cold": 80},
	} {
		for class, n := range counts {
			xs := make([]float64, n)
			if _, beyond := Percentile(xs, tailPercentiles[w][class]); beyond < minBeyond {
				t.Errorf("%s %s: p%g of %d samples has %d beyond", w, class, tailPercentiles[w][class], n, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := Quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || Median(xs) != 5.5 {
		t.Fatalf("quartiles %g %g median %g", q1, q3, Median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := Quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three: %g %g", q1, q3)
	}
	if s := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Fatalf("spread %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "do", Start: 10, End: 90},
		// Two overlapping children of do, and one running past its end.
		{ID: 4, Parent: 3, Name: "journal", Start: 20, End: 40},
		{ID: 5, Parent: 3, Name: "journal", Start: 30, End: 50},
		{ID: 6, Parent: 3, Name: "execute", Start: 80, End: 120},
		{ID: 7, Parent: 1, Name: "encode", Start: 90, End: 95},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"request": 5, "decode": 10, "do": 80 - 30 - 10, "journal": 40, "execute": 40, "encode": 5}
	for name, self := range want {
		if got[name].Self != self {
			t.Errorf("%s self = %d, want %d", name, got[name].Self, self)
		}
	}
	if got["journal"].Count != 2 || got["journal"].Total != 40 {
		t.Errorf("journal count/total = %d/%d", got["journal"].Count, got["journal"].Total)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := NewRecorder(false)
	o := r.Begin("x", 0, 1)
	r.End(o)
	r.Record("y", 0, 1, 0, 5)
	if len(r.Spans()) != 0 || o.ID() != 0 {
		t.Fatal("a disabled recorder kept spans")
	}
	on := NewRecorder(true)
	parent := on.Begin("p", 0, 1)
	child := on.Begin("c", parent.ID(), 1)
	on.End(child)
	on.End(parent)
	s := on.Spans()
	if len(s) != 2 || s[0].Parent != s[1].ID || s[0].Req != 1 {
		t.Fatalf("spans %+v", s)
	}
}

func TestParseMetricsFromServer(t *testing.T) {
	rn := service.NewRunner(service.Options{Workers: 1, Parallelism: 1})
	defer rn.Close()
	// A cluster node appends its own lines through Extra.Metrics.
	srv := httptest.NewServer(service.NewServerWith(rn, service.Extra{Metrics: func(w io.Writer) {
		fmt.Fprintf(w, "# HELP conserve_cluster_leader Whether this node leads.\nconserve_cluster_leader 1\n")
	}}))
	defer srv.Close()
	target := NewHTTPTarget(srv.URL, 1)
	defer target.Close()
	op := runOp(0, ClassCold, service.Request{Protocol: "3-majority", N: 1000, K: 4, Trials: 2, Seed: 1}, "miss")
	for _, want := range []string{"miss", "hit"} {
		a, err := target.Send(context.Background(), 0, op)
		if err != nil {
			t.Fatal(err)
		}
		op.Want = want
		if msg := NewChecker().Check(op, a); msg != "" {
			t.Fatalf("%s answer: %s", want, msg)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"conserve_requests_total": 2, "conserve_cache_hits_total": 1, "conserve_cache_misses_total": 1,
		"conserve_executions_total": 1, "conserve_joined_total": 0, "conserve_workers": 1, "conserve_cluster_leader": 1,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	if _, ok := m["conserve_journal_replay_seconds"]; !ok {
		t.Error("conserve_journal_replay_seconds missing")
	}
	if _, err := ParseMetrics(strings.NewReader("conserve_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	q := service.Request{Protocol: "3-majority", N: 1000, K: 4, Trials: 2, Seed: 1}
	resp, err := service.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	var good strings.Builder
	service.EncodeJSONLine(&good, resp)
	op := runOp(0, ClassCold, q, "miss")
	c := NewChecker()
	if msg := c.Check(op, Answer{Status: 200, Cache: "miss", Body: []byte(good.String())}); msg != "" {
		t.Fatalf("good answer rejected: %s", msg)
	}
	for name, a := range map[string]Answer{
		"429":          {Status: 429, Body: []byte(`{"error":"busy"}`)},
		"wrong cache":  {Status: 200, Cache: "hit", Body: []byte(good.String())},
		"changed body": {Status: 200, Cache: "miss", Body: []byte(strings.Replace(good.String(), `"trials":2`, `"trials":2 `, 1))},
	} {
		if msg := c.Check(op, a); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	ana := runOp(1, ClassAnalytic, service.Request{Protocol: "2-choices", N: 1 << 40, K: 100, Tier: service.TierAnalytic}, "miss")
	aresp, err := service.Execute(*ana.Req)
	if err != nil {
		t.Fatal(err)
	}
	aresp.Analytic.Rounds = aresp.Analytic.RoundsHi + 1
	var bad strings.Builder
	service.EncodeJSONLine(&bad, aresp)
	if msg := c.Check(ana, Answer{Status: 200, Cache: "miss", Body: []byte(bad.String())}); !strings.Contains(msg, "outside") {
		t.Errorf("analytic rounds outside the interval: %q", msg)
	}
}

func TestInProcReplayServeHot(t *testing.T) {
	// The traced replay over a durable store answers the serve-hot mix
	// correctly from two connections, and its spans nest under their
	// requests.
	plan := ServeHotPlan(5, 2)
	plan.Fill = plan.Fill[:64]
	rec := NewRecorder(true)
	p, err := NewInProc(rec, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker()
	if err := fill(context.Background(), p, chk, plan.Fill, 2); err != nil {
		t.Fatal(err)
	}
	// Only the filled keys can be hits: send hot ops for those.
	hot := plan.Next
	filled := map[string]bool{}
	for _, op := range plan.Fill {
		filled[op.Key] = true
	}
	plan.Next = func(conn, step int) Op {
		op := hot(conn, step)
		if op.Class == ClassHot && !filled[op.Key] {
			op.Want = ""
		}
		return op
	}
	loop := RunLoop(context.Background(), plan, p, chk, 300*time.Millisecond)
	p.Close()
	if loop.Attempted() == 0 || loop.Failed() != 0 {
		for _, s := range loop.Samples {
			if s.Failed != "" {
				t.Fatalf("%d ops, first failure: %s", loop.Attempted(), s.Failed)
			}
		}
		t.Fatal("no ops completed")
	}
	layers := SelfTimes(rec.Spans())
	for _, name := range []string{spanRequest, spanDecode, spanNormalize, spanDo, spanEncode, spanJournal + "submitted", spanComplete} {
		if layers[name].Count == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}
