package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"plurality/internal/service"
)

// Metric is one reported figure. Samples, when present, are the raw
// values its statistic was taken over; the latency metrics' samples are
// the loopback samples of the record's phase.
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Note    string    `json:"note,omitempty"`
	Spread  float64   `json:"spread,omitempty"` // (q3 - q1) / median of Samples
	Samples []float64 `json:"samples,omitempty"`
}

// Report is one run's outcome.
type Report struct {
	Workload    string               `json:"workload"`
	Traced      bool                 `json:"traced"`
	Fingerprint Fingerprints         `json:"fingerprint"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Problems    []string             `json:"problems,omitempty"`
	Metrics     []Metric             `json:"metrics"`
	Phase       *Phase               `json:"phase"`
	Layers      map[string]LayerTime `json:"layers,omitempty"`
	SpanFile    string               `json:"span_file,omitempty"`
}

// Fingerprints identifies the machine, toolchain and source a run
// measured.
type Fingerprints struct {
	CPU             string `json:"cpu_model"`
	NProc           int    `json:"nproc"`
	ServerProcs     int    `json:"server_gomaxprocs"`
	GeneratorProcs  int    `json:"generator_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	GOGC            string `json:"gogc"`
	Commit          string `json:"commit"`
	SourceDigest    string `json:"source_digest"`
	Seed            uint64 `json:"seed"`
	Seconds         int    `json:"seconds"`
	LoadConnections int    `json:"load_connections"`
}

// Fingerprint collects the run's fingerprint. The commit comes from
// git when the tree is a repository ("none" otherwise); the source
// digest hashes every Go source and module file under the working
// directory, so it identifies the code either way.
func Fingerprint(env *Env) (Fingerprints, error) {
	fp := Fingerprints{NProc: runtime.NumCPU(), ServerProcs: env.Procs, GeneratorProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOGC: gogc(), Commit: "none", Seed: env.Seed, Seconds: env.Seconds, LoadConnections: env.Conns}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return fp, fmt.Errorf("source digest: %w", err)
	}
	fp.SourceDigest = hex.EncodeToString(h.Sum(nil))[:16]
	return fp, nil
}

// recordDigest stores the digest under id in the digest file and
// returns the one stored there before, if any.
func recordDigest(path, id, digest string) (string, error) {
	seen := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &seen); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	}
	prev := seen[id]
	if prev == "" {
		seen[id] = digest
		data, err := json.MarshalIndent(seen, "", " ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return "", err
		}
	}
	return prev, nil
}

// tailPercentiles fixes, per workload, the percentile each latency
// "p99" metric reports: p99 where at least ten samples lie beyond it;
// elsewhere the highest percentile that keeps ten beyond at the sample
// counts a slow window reaches and that repeated best across ten runs
// of different seeds (the report flags any run that falls short).
// Keyed by class: all, hit, cold.
var tailPercentiles = map[string]map[string]float64{
	"serve-hot":     {"all": 99, "hit": 99, "cold": 75},
	"paper-sweep":   {"all": 90, "hit": 70, "cold": 60},
	"agent-modes":   {"all": 90, "hit": 75, "cold": 60},
	"cluster-sweep": {"all": 90, "hit": 70, "cold": 75},
}

// latencyMetrics gives a class's p50 and tail metrics.
func latencyMetrics(prefix, workload, class string, xs []float64) []Metric {
	p := tailPercentiles[workload][class]
	tail, beyond := Percentile(xs, p)
	note := fmt.Sprintf("p%g", p)
	if beyond < minBeyond {
		note += fmt.Sprintf(", only %d samples beyond", beyond)
	}
	return []Metric{
		{Name: prefix + "p50_ms", Unit: "ms", Value: Median(xs), N: len(xs), Spread: Spread(xs)},
		{Name: prefix + "p99_ms", Unit: "ms", Value: tail, N: len(xs), Note: note},
	}
}

// EndToEnd derives the end-to-end metrics of the loopback phase.
func EndToEnd(workload string, ph *Phase) []Metric {
	l := ph.Loop
	win := l.Window.Seconds()
	var all, hit, cold []float64
	for _, s := range l.Samples {
		if s.Failed != "" {
			continue
		}
		all = append(all, s.Ms)
		if s.Cold() {
			cold = append(cold, s.Ms)
		} else {
			hit = append(hit, s.Ms)
		}
	}
	ok := 1.0
	if n := l.Attempted(); n > 0 {
		ok = float64(n-l.Failed()) / float64(n)
	}
	ms := []Metric{
		{Name: "setup_s", Unit: "s", Value: Median(ph.Setup), N: len(ph.Setup), Spread: Spread(ph.Setup), Samples: ph.Setup},
		{Name: "throughput_rps", Unit: "1/s", Value: float64(len(all)) / win, N: len(all), Note: fmt.Sprintf("over %.2fs", win)},
		{Name: "trials_per_s", Unit: "1/s", Value: float64(l.Trials) / win, N: l.Trials},
	}
	ms = append(ms, latencyMetrics("latency_", workload, "all", all)...)
	ms = append(ms, latencyMetrics("hit_latency_", workload, "hit", hit)...)
	ms = append(ms, latencyMetrics("cold_latency_", workload, "cold", cold)...)
	ms = append(ms,
		Metric{Name: "peak_rss_mb", Unit: "MB", Value: float64(ph.PeakRSSKB) / 1024, N: 1},
		Metric{Name: "ok_ratio", Unit: "ratio", Value: ok, N: l.Attempted(),
			Note: fmt.Sprintf("failed_ratio %g = %d failed / %d attempted", 1-ok, l.Failed(), l.Attempted())},
	)
	return ms
}

// kernelProbes picks the requests the Parallelism-1 kernel probe
// runs: a fixed few of the workload's cold shapes.
func kernelProbes(workload string, plan *Plan) []service.Request {
	var out []service.Request
	switch workload {
	case "paper-sweep", "cluster-sweep":
		// Every third point of the first sweeps, past the two smallest k.
		for step := 0; len(out) < 5; step++ {
			op := plan.Next(0, step)
			if op.Class != ClassSweep {
				continue
			}
			for i := 2; i < len(op.Points); i += 3 {
				out = append(out, op.Points[i])
			}
		}
	case "agent-modes":
		for step := 0; len(out) < 3; step++ {
			if op := plan.Next(0, step); op.Class == ClassCold {
				out = append(out, *op.Req)
			}
		}
	case "serve-hot":
		for step := 0; len(out) < 20; step++ {
			if op := plan.Next(0, step); op.Class == ClassCold {
				out = append(out, *op.Req)
			}
		}
	}
	return out
}

// analyticProbes are the first analytic requests of the plan (none for
// workloads without them).
func analyticProbes(plan *Plan) []service.Request {
	var out []service.Request
	for step := 0; step < 20000 && len(out) < 50; step++ {
		if op := plan.Next(0, step); op.Class == ClassAnalytic {
			out = append(out, *op.Req)
		}
	}
	return out
}

// PerLayer derives the per-layer metrics: outside-in counters from the
// loopback phase, span statistics from the traced replay, the kernel
// and analytic probes, and the tracing overhead (traced replay against
// the untraced one). A layer the workload does not exercise reads 0.
func PerLayer(ph *Phase, off, on *Replay, spans []Span, kernel map[string]*KernelStats, analytic []float64) []Metric {
	var ms []Metric
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, Metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
	}
	ratio := func(name string, num, den float64, what string) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		add(name, "ratio", v, int(den), fmt.Sprintf("%g / %g %s", num, den, what))
	}
	durations := map[string][]float64{} // span name → durations, µs
	for _, s := range spans {
		if s.Req == 0 && s.Name == spanResultRead {
			continue // read by durable.Open, not by a request
		}
		durations[s.Name] = append(durations[s.Name], float64(s.End-s.Start)/1e3)
	}
	// The in-process hit path: whole requests answered from the cache.
	var hitPath, hitDo []float64
	doByReq := map[int64]float64{}
	for _, s := range spans {
		if s.Name == spanDo {
			doByReq[s.Req] = float64(s.End-s.Start) / 1e3
		}
	}
	for _, s := range spans {
		if s.Name == spanRequest && on.Hits[s.Req] {
			hitPath = append(hitPath, float64(s.End-s.Start)/1e3)
			hitDo = append(hitDo, doByReq[s.Req])
		}
	}
	median := func(name string) (float64, int) { return Median(durations[name]), len(durations[name]) }

	v, n := median(spanDecode)
	add("http.decode_us", "us", v, n, "median JSON decode of a request body")
	v, n = median(spanEncode)
	add("http.encode_us", "us", v, n, "median EncodeJSONLine / NDJSON write")
	var bytesOut []float64
	for _, s := range ph.Loop.Samples {
		if s.Class != ClassSweep {
			bytesOut = append(bytesOut, float64(s.Bytes))
		}
	}
	add("http.response_bytes", "bytes", Median(bytesOut), len(bytesOut), "median /run body over loopback")
	var loopHits []float64
	for _, s := range ph.Loop.Samples {
		if s.Cache == "hit" && s.Failed == "" {
			loopHits = append(loopHits, s.Ms*1e3)
		}
	}
	loop := 0.0
	if len(loopHits) > 0 && len(hitPath) > 0 {
		loop = Median(loopHits) - Median(hitPath)
	}
	add("http.loopback_us", "us", loop, len(loopHits), fmt.Sprintf("loopback hit p50 %.1fus minus in-process hit path p50 %.1fus", Median(loopHits), Median(hitPath)))
	v, n = median(spanNormalize)
	add("request.normalize_key_us", "us", v, n, "median Normalize+Validate+Key (sweeps: Points+Key)")

	add("runner.hit_us", "us", Median(hitDo), len(hitDo), "median Runner.Do answered from the cache")
	qw := durations[spanQueueWait]
	add("runner.queue_wait_ms", "ms", Median(qw)/1e3, len(qw), "median Do on a miss minus its execute span")
	d := ph.Delta
	ratio("runner.hit_ratio", d["conserve_cache_hits_total"], d["conserve_requests_total"], "hits/requests")
	ratio("runner.disk_hit_ratio", d["conserve_disk_hits_total"], d["conserve_cache_hits_total"], "disk hits/hits")
	ratio("runner.join_ratio", d["conserve_joined_total"], d["conserve_cache_misses_total"], "joined/misses")
	ratio("runner.executions_per_key", d["conserve_executions_total"], float64(ph.ColdKeys), "executions/distinct cold keys")
	add("runner.rejected", "count", d["conserve_rejected_total"], 1, "429 answers")

	v, n = median(spanJournal + "submitted")
	add("durable.submit_us", "us", v, n, "median fsync'd submitted record")
	v, n = median(spanComplete)
	add("durable.complete_us", "us", v, n, "median Store.Completed: result publish + completed record")
	v, n = median(spanResultRead)
	add("durable.result_read_us", "us", v, n, "median results/<key>.json read")
	jobs := d["conserve_cache_misses_total"]
	perJob := 0.0
	if jobs > 0 {
		perJob = float64(ph.JournalBytes) / jobs
	}
	add("durable.journal_bytes_per_job", "bytes", perJob, int(jobs), fmt.Sprintf("%d journal bytes / %g cold jobs; results/ holds %d bytes", ph.JournalBytes, jobs, ph.ResultsBytes))
	add("durable.replay_s", "s", Median(ph.Replay), len(ph.Replay), "median conserve_journal_replay_seconds over restarts")

	var first []float64
	for _, ks := range kernel {
		first = append(first, ks.FirstYield...)
	}
	add("experiment.first_trial_ms", "ms", Median(first), len(first), "Stream call to first yield, Parallelism 1")
	for _, mode := range []struct{ key, name string }{{"sync", "core"}, {"async", "async"}, {"graph", "graph"}, {"gossip", "gossip"}} {
		ks := kernel[mode.key]
		if ks == nil {
			ks = &KernelStats{}
		}
		rps, allocs, bytes := 0.0, 0.0, 0.0
		if ks.Trials > 0 {
			rps = ks.Rounds / ks.Elapsed.Seconds()
			allocs = float64(ks.Mallocs) / float64(ks.Trials)
			bytes = float64(ks.Bytes) / float64(ks.Trials)
		}
		add(mode.name+".trial_ms", "ms", Median(ks.TrialTimes), ks.Trials, "median yield-to-yield, Parallelism 1")
		add(mode.name+".rounds_per_s", "1/s", rps, ks.Trials, "rounds simulated / stream time")
		add(mode.name+".allocs_per_trial", "count", allocs, ks.Trials, "")
		if mode.key == "sync" {
			add("core.bytes_per_trial", "bytes", bytes, ks.Trials, "")
		}
	}
	add("analytic.predict_us", "us", Median(analytic), len(analytic), "median closed-form answer")

	fd := ph.FleetDelta
	add("cluster.overhead_ms", "ms", ph.OverheadMs, 15, "coordinator p50 minus single-node p50, tiny request")
	add("cluster.requeues", "count", fd["conserve_shard_requeues_total"], 1, "")
	add("cluster.peer_cache_hits", "count", fd["conserve_peer_cache_hits_total"], 1, "")
	logPerJob := 0.0
	if jobs > 0 && ph.ClusterLogBytes > 0 {
		logPerJob = float64(ph.ClusterLogBytes) / jobs
	}
	add("cluster.log_bytes_per_job", "bytes", logPerJob, int(jobs), "coordinator cluster.journal growth / jobs")
	add("cluster.election_s", "s", Median(ph.Election), len(ph.Election), "every node healthy → a leader")

	reqs := float64(ph.Loop.Attempted())
	add("server.cpu_ms_per_request", "ms", ph.ServerCPU.Seconds()*1e3/reqs, int(reqs), fmt.Sprintf("%.2fs server CPU", ph.ServerCPU.Seconds()))
	perTrial := 0.0
	if ph.Loop.Trials > 0 {
		perTrial = ph.ServerCPU.Seconds() / float64(ph.Loop.Trials)
	}
	add("server.cpu_s_per_trial", "s", perTrial, ph.Loop.Trials, "")
	share := 0.0
	if tot := ph.ServerCPU + ph.LoadgenCPU; tot > 0 {
		share = ph.LoadgenCPU.Seconds() / tot.Seconds()
	}
	add("loadgen.cpu_share", "ratio", share, 1, fmt.Sprintf("%.2fs generator CPU", ph.LoadgenCPU.Seconds()))

	// Tracing overhead: the same requests in-process, tracing off and on.
	lat := func(r *Replay) float64 {
		var xs []float64
		for _, s := range r.Loop.Samples {
			xs = append(xs, s.Ms)
		}
		return Median(xs)
	}
	rate := func(r *Replay) float64 { return float64(r.Loop.Attempted()) / r.Loop.Window.Seconds() }
	add("trace.latency_overhead", "ratio", lat(on)/lat(off)-1, on.Loop.Attempted(), fmt.Sprintf("p50 %.3fms traced vs %.3fms untraced, in-process", lat(on), lat(off)))
	add("trace.throughput_overhead", "ratio", rate(off)/rate(on)-1, off.Loop.Attempted(), fmt.Sprintf("%.1f/s untraced vs %.1f/s traced, in-process", rate(off), rate(on)))
	add("trace.spans_per_request", "count", float64(len(spans))/float64(max(on.Loop.Attempted(), 1)), len(spans), "")
	return ms
}

// Result is the last line of standard output.
func (rep *Report) Result() map[string]any {
	metrics := map[string]any{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": rep.Correct, "attempted": max(rep.Attempted, 1), "failed": rep.Failed, "metrics": metrics}
}

// Print writes the human-readable report.
func (rep *Report) Print(w io.Writer) {
	fp := rep.Fingerprint
	fmt.Fprintf(w, "# workload %s, seed %d, %ds window, traced=%v\n", rep.Workload, fp.Seed, fp.Seconds, rep.Traced)
	fmt.Fprintf(w, "# cpu %q nproc %d, server GOMAXPROCS %d, generator GOMAXPROCS %d, %s, GOGC=%s, commit %s, source %s\n",
		fp.CPU, fp.NProc, fp.ServerProcs, fp.GeneratorProcs, fp.GoVersion, fp.GOGC, fp.Commit, fp.SourceDigest)
	ph := rep.Phase
	fmt.Fprintf(w, "# answers: %d attempted, %d failed; digest %s\n", rep.Attempted, rep.Failed, ph.Loop.Digest)
	classes := map[string]int{}
	for _, s := range ph.Loop.Samples {
		classes[s.Class+"/"+s.Cache]++
	}
	var parts []string
	for _, k := range sortedKeys(classes) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, classes[k]))
	}
	fmt.Fprintf(w, "# ops by class/cache: %s\n", strings.Join(parts, " "))
	var deltas []string
	for _, k := range sortedKeys(ph.FleetDelta) {
		if v := ph.FleetDelta[k]; v != 0 && (strings.HasSuffix(k, "_total") || strings.HasSuffix(k, "_seconds")) {
			deltas = append(deltas, fmt.Sprintf("%s=%g", strings.TrimPrefix(k, "conserve_"), v))
		}
	}
	fmt.Fprintf(w, "# /metrics deltas (all nodes): %s\n", strings.Join(deltas, " "))
	fmt.Fprintf(w, "# /proc: server CPU %.2fs, generator CPU %.2fs, peak RSS %.1f MB; host steal %.1f%%, iowait %.1f%% of CPU time\n",
		ph.ServerCPU.Seconds(), ph.LoadgenCPU.Seconds(), float64(ph.PeakRSSKB)/1024, 100*ph.HostSteal, 100*ph.HostIOWait)
	if ph.JournalBytes > 0 || ph.ResultsBytes > 0 {
		fmt.Fprintf(w, "# data dir: journal.log +%d bytes over the window, results/ %d bytes\n", ph.JournalBytes, ph.ResultsBytes)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# PROBLEM: %s\n", p)
	}
	for _, m := range rep.Metrics {
		extra := fmt.Sprintf("n=%d", m.N)
		if m.Spread != 0 {
			extra += fmt.Sprintf(" spread=%.3f", m.Spread)
		}
		if m.Note != "" {
			extra += "; " + m.Note
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s (%s)\n", m.Name, m.Value, m.Unit, extra)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "# self time per layer (traced replay and kernel probes), span file %s\n", rep.SpanFile)
		names := sortedKeys(rep.Layers)
		sort.SliceStable(names, func(i, j int) bool { return rep.Layers[names[i]].Self > rep.Layers[names[j]].Self })
		for _, name := range names {
			lt := rep.Layers[name]
			fmt.Fprintf(w, "#   %-28s count %7d  total %10s  self %10s\n", name, lt.Count,
				lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
		}
	}
}

// Save writes the full record: fingerprint, every metric with its raw
// samples, the loopback samples and the counters.
func (rep *Report) Save(path string) error {
	return writeGzip(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(rep) })
}

// writeGzip writes a gzip-compressed file through write.
func writeGzip(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
