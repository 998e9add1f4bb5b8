package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"plurality"
	"plurality/internal/durable"
	"plurality/internal/service"
	"plurality/internal/trace"
)

// Span names: one per layer boundary the in-process replay crosses.
const (
	spanRequest    = "request"               // one op, root
	spanDecode     = "http.decode"           // JSON decode of the body
	spanNormalize  = "request.normalize_key" // Normalize + Validate + Key (sweeps: Points + Key)
	spanDo         = "runner.do"             // Runner.Do
	spanSweep      = "runner.sweep"          // Runner.Sweep
	spanQueueWait  = "runner.queue_wait"     // Do start → a worker picks the job up
	spanExecute    = "runner.execute"        // worker pick-up → answer (a sweep point: its line)
	spanEncode     = "http.encode"           // EncodeJSONLine / WriteTraceNDJSON
	spanResultRead = "durable.result_read"   // Store.Result: read of results/<key>.json
	spanOpen       = "durable.open"          // durable.Open: journal replay, completed results checked
	spanComplete   = "durable.complete"      // Store.Completed: result publish + completion record
	spanJournal    = "durable.journal."      // + op: one fsync'd journal append
	spanStream     = "experiment.stream"     // Experiment.Stream in the kernel probe
	spanYield      = "experiment.yield"      // one trial delivered by Stream
)

// pending ties a key the runner is working on to the request (and span)
// that asked for it, so that spans observed inside the runner — a
// worker picking the job up, the store's file writes — get a parent.
type pending struct {
	req, parent int64
	doStart     int64 // 0 for sweep points: submission time unknown
	lookup      int64 // when a worker picked the job up
	exec        int64 // the execute span's ID, reserved at pick-up
	putStart    int64 // when Store.Completed began publishing the result
}

// tracker observes the runner from outside: it is the runner's Remote
// (which every worker consults before executing a non-analytic job,
// and which always declines, so execution stays on the local path) and
// it wraps the durable store's filesystem.
type tracker struct {
	rec   *Recorder
	mu    sync.Mutex
	byKey map[string]*pending
	open  int64 // the durable.open span while the store replays (parent of its reads)
}

func newTracker(rec *Recorder) *tracker {
	return &tracker{rec: rec, byKey: make(map[string]*pending)}
}

// register claims key for a request; a joining partner finds the key
// taken and leaves it with the submitter.
func (t *tracker) register(key string, req, parent, doStart int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byKey[key]; ok {
		return false
	}
	t.byKey[key] = &pending{req: req, parent: parent, doStart: doStart}
	return true
}

// release forgets key and returns what was observed for it.
func (t *tracker) release(key string) pending {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.byKey[key]
	delete(t.byKey, key)
	if p == nil {
		return pending{}
	}
	return *p
}

func (t *tracker) with(key string, f func(p *pending)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.byKey[key]; p != nil {
		f(p)
	}
}

// span records a span under the request that owns key: under its
// execute span once a worker has picked the job up.
func (t *tracker) span(name, key string, start, end int64) {
	t.mu.Lock()
	parent, req := t.open, int64(0)
	if p := t.byKey[key]; p != nil {
		parent, req = p.parent, p.req
		if p.exec != 0 {
			parent = p.exec
		}
	}
	t.mu.Unlock()
	t.rec.Record(name, parent, req, start, end)
}

// Lookup implements service.Remote: it marks the job's pick-up by a
// worker and finds nothing.
func (t *tracker) Lookup(_ context.Context, key string) (*service.Response, bool) {
	now := t.rec.Now()
	t.with(key, func(p *pending) {
		if p.lookup == 0 {
			p.lookup, p.exec = now, t.rec.NewID()
		}
	})
	return nil, false
}

// Run implements service.Remote by declining: the runner then executes
// the job locally, exactly as without a Remote.
func (t *tracker) Run(context.Context, service.Request) (*service.Response, error) {
	return nil, service.ErrNotClustered
}

// traceFS wraps the store's filesystem to time its journal appends and
// result-file reads and writes.
type traceFS struct {
	durable.FS
	t *tracker
}

func (f traceFS) OpenAppend(name string) (durable.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil || !f.t.rec.on || filepath.Base(name) != "journal.log" {
		return file, err
	}
	return &journalFile{File: file, t: f.t}, nil
}

func (f traceFS) Create(name string) (durable.File, error) {
	if key, ok := strings.CutSuffix(filepath.Base(name), ".json.tmp"); ok && f.t.rec.on {
		now := f.t.rec.Now()
		f.t.with(key, func(p *pending) { p.putStart = now })
	}
	return f.FS.Create(name)
}

func (f traceFS) ReadFile(name string) ([]byte, error) {
	key, isResult := strings.CutSuffix(filepath.Base(name), ".json")
	if !isResult || !f.t.rec.on {
		return f.FS.ReadFile(name)
	}
	t0 := f.t.rec.Now()
	data, err := f.FS.ReadFile(name)
	f.t.span(spanResultRead, key, t0, f.t.rec.Now())
	return data, err
}

// journalFile times each append: the frame's Write through its fsync.
// The journal serialises appends, so one pending frame suffices.
type journalFile struct {
	durable.File
	t        *tracker
	op, key  string
	start    int64
	inAppend bool
}

func (j *journalFile) Write(b []byte) (int, error) {
	j.start, j.inAppend = j.t.rec.Now(), false
	if len(b) > 8 && int(binary.LittleEndian.Uint32(b)) == len(b)-8 {
		var rec struct{ Op, Key string }
		if json.Unmarshal(b[8:], &rec) == nil {
			j.op, j.key, j.inAppend = rec.Op, rec.Key, true
		}
	}
	return j.File.Write(b)
}

func (j *journalFile) Sync() error {
	err := j.File.Sync()
	if j.inAppend {
		end := j.t.rec.Now()
		j.t.span(spanJournal+j.op, j.key, j.start, end)
		if j.op == durable.OpCompleted {
			var put int64
			j.t.with(j.key, func(p *pending) { put = p.putStart })
			if put != 0 {
				j.t.span(spanComplete, j.key, put, end)
			}
		}
		j.inAppend = false
	}
	return err
}

// InProc replays ops through the handler path in-process: decode,
// normalize and key, Runner.Do or Runner.Sweep, encode, with a span
// around each call.
type InProc struct {
	rn    *service.Runner
	store *durable.Store
	rec   *Recorder
	t     *tracker
	reqs  atomic.Int64
	// hitReqs marks the request IDs answered from the cache, for the
	// in-process hit path.
	mu      sync.Mutex
	hitReqs map[int64]bool
}

// NewInProc builds a runner with the server's options (workers and
// parallelism = procs, queue 64, cache 256) and, when dataDir is set,
// a durable store on it.
func NewInProc(rec *Recorder, procs int, dataDir string) (*InProc, error) {
	p := &InProc{rec: rec, t: newTracker(rec), hitReqs: map[int64]bool{}}
	opts := service.Options{Workers: procs, Parallelism: procs, QueueDepth: 64, CacheSize: 256, Remote: p.t}
	if dataDir != "" {
		open := rec.Begin(spanOpen, 0, 0)
		p.t.mu.Lock()
		p.t.open = open.ID()
		p.t.mu.Unlock()
		store, err := durable.Open(traceFS{FS: durable.OSFS{}, t: p.t}, dataDir)
		rec.End(open)
		p.t.mu.Lock()
		p.t.open = 0
		p.t.mu.Unlock()
		if err != nil {
			return nil, err
		}
		p.store, opts.Store = store, store
	}
	p.rn = service.NewRunner(opts)
	return p, nil
}

// Close stops the runner and the store.
func (p *InProc) Close() {
	p.rn.Close()
	if p.store != nil {
		p.store.Close()
	}
}

// Send implements Target.
func (p *InProc) Send(ctx context.Context, _ int, op Op) (Answer, error) {
	req := p.reqs.Add(1)
	root := p.rec.Begin(spanRequest, 0, req)
	defer p.rec.End(root)
	if op.Class == ClassSweep {
		return p.sweep(ctx, op, req, root.ID())
	}

	sp := p.rec.Begin(spanDecode, root.ID(), req)
	var q service.Request
	err := decodeStrict(op.Body, &q)
	p.rec.End(sp)
	if err != nil {
		return Answer{Status: http.StatusBadRequest, Body: []byte(err.Error())}, nil
	}
	traceNDJSON := strings.Contains(op.Path, "trace=1")
	if traceNDJSON && q.Trace == nil {
		q.Trace = &trace.Spec{} // as the server does for ?trace=1
	}

	sp = p.rec.Begin(spanNormalize, root.ID(), req)
	n := q.Normalize()
	err = n.Validate()
	key := n.Key()
	p.rec.End(sp)
	if err != nil {
		return Answer{Status: http.StatusBadRequest, Body: []byte(err.Error())}, nil
	}

	do := p.rec.Begin(spanDo, root.ID(), req)
	owner := p.t.register(key, req, do.ID(), p.rec.Now())
	resp, cached, err := p.rn.Do(ctx, q)
	end := p.rec.Now()
	p.rec.End(do)
	if owner {
		obs := p.t.release(key)
		if obs.lookup != 0 && err == nil && !cached {
			p.rec.Record(spanQueueWait, do.ID(), req, obs.doStart, obs.lookup)
			p.rec.Add(Span{ID: obs.exec, Parent: do.ID(), Req: req, Name: spanExecute, Start: obs.lookup, End: end})
		}
	}
	if err != nil {
		return Answer{Status: http.StatusInternalServerError, Body: []byte(err.Error())}, nil
	}
	a := Answer{Status: http.StatusOK, Cache: "miss"}
	if cached {
		a.Cache = "hit"
		p.mu.Lock()
		p.hitReqs[req] = true
		p.mu.Unlock()
	}

	sp = p.rec.Begin(spanEncode, root.ID(), req)
	var buf bytes.Buffer
	if traceNDJSON {
		err = service.WriteTraceNDJSON(&buf, resp, nil)
	} else {
		err = service.EncodeJSONLine(&buf, resp)
	}
	p.rec.End(sp)
	a.Body = buf.Bytes()
	return a, err
}

func (p *InProc) sweep(ctx context.Context, op Op, req, root int64) (Answer, error) {
	sp := p.rec.Begin(spanDecode, root, req)
	var sr service.SweepRequest
	err := decodeStrict(op.Body, &sr)
	p.rec.End(sp)
	if err != nil {
		return Answer{Status: http.StatusBadRequest, Body: []byte(err.Error())}, nil
	}

	sw := p.rec.Begin(spanSweep, root, req)
	sp = p.rec.Begin(spanNormalize, sw.ID(), req)
	points, err := sr.Points()
	keys := make([]string, len(points))
	for i, q := range points {
		keys[i] = q.Key()
	}
	p.rec.End(sp)
	if err != nil {
		p.rec.End(sw)
		return Answer{Status: http.StatusBadRequest, Body: []byte(err.Error())}, nil
	}
	owned := make([]bool, len(keys))
	for i, k := range keys {
		owned[i] = p.t.register(k, req, sw.ID(), 0)
	}
	var buf bytes.Buffer
	i := 0
	err = p.rn.Sweep(ctx, sr, func(pt service.SweepPoint) error {
		emitted := p.rec.Now()
		if owned[i] {
			if obs := p.t.release(keys[i]); obs.lookup != 0 {
				p.rec.Add(Span{ID: obs.exec, Parent: sw.ID(), Req: req, Name: spanExecute, Start: obs.lookup, End: emitted})
			}
		}
		i++
		enc := p.rec.Begin(spanEncode, sw.ID(), req)
		err := service.EncodeJSONLine(&buf, pt)
		p.rec.End(enc)
		return err
	})
	p.rec.End(sw)
	for j := i; j < len(keys); j++ {
		if owned[j] {
			p.t.release(keys[j])
		}
	}
	if err != nil {
		return Answer{Status: http.StatusInternalServerError, Body: []byte(err.Error())}, nil
	}
	return Answer{Status: http.StatusOK, Body: buf.Bytes()}, nil
}

// decodeStrict decodes a request body the way the server does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// KernelStats sums Parallelism-1 Experiment.Stream probes of one mode.
type KernelStats struct {
	Trials     int
	Rounds     float64
	Elapsed    time.Duration
	TrialTimes []float64 // ms per trial (yield to yield)
	FirstYield []float64 // ms from Stream to the first yield, per probe
	Mallocs    uint64
	Bytes      uint64
}

// ProbeKernel runs each request's experiment through
// Experiment.Stream at Parallelism 1 and times every yield, so a
// trial's time is the gap between consecutive yields. Allocation
// counts come from runtime.MemStats around each stream.
func ProbeKernel(ctx context.Context, rec *Recorder, reqs []service.Request) (map[string]*KernelStats, error) {
	out := map[string]*KernelStats{}
	for _, q := range reqs {
		n := q.Normalize()
		exp, err := n.Experiment()
		if err != nil {
			return nil, err
		}
		exp.Parallelism = 1
		ks := out[n.Mode]
		if ks == nil {
			ks = &KernelStats{}
			out[n.Mode] = ks
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		st := rec.Begin(spanStream, 0, 0)
		t0 := rec.Now()
		last := t0
		err = exp.Stream(ctx, func(i int, tr plurality.TrialResult) bool {
			now := rec.Now()
			if i == 0 {
				ks.FirstYield = append(ks.FirstYield, nsToMs(now-t0))
			}
			rec.Record(spanYield, st.ID(), 0, last, now)
			ks.TrialTimes = append(ks.TrialTimes, nsToMs(now-last))
			ks.Trials++
			ks.Rounds += tr.Rounds
			last = now
			return true
		})
		ks.Elapsed += time.Duration(rec.Now() - t0)
		rec.End(st)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		ks.Mallocs += m1.Mallocs - m0.Mallocs
		ks.Bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return out, nil
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// ProbeAnalytic times the analytic tier's answer for each request
// (ExecuteParallel short-circuits to the closed form), in µs.
func ProbeAnalytic(reqs []service.Request) ([]float64, error) {
	var us []float64
	for _, q := range reqs {
		t0 := time.Now()
		resp, err := service.ExecuteParallel(q, 1)
		if err != nil {
			return nil, err
		}
		if resp.Method != service.MethodAnalytic {
			return nil, fmt.Errorf("analytic probe answered by %q", resp.Method)
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return us, nil
}

// Replay is one in-process pass over the plan.
type Replay struct {
	Loop *LoopResult
	// Hits marks the request IDs answered from the cache.
	Hits map[int64]bool
}

// RunReplay replays the plan in-process for d with tracing on or off.
// A data-dir workload starts from a copy of the filled data dir, as
// the measured server did. chk is the loopback phase's checker, so
// every in-process answer must also be byte-identical to the served
// one for the same key.
func RunReplay(ctx context.Context, env *Env, plan *Plan, chk *Checker, rec *Recorder, filled string, d time.Duration) (*Replay, error) {
	dataDir := ""
	if filled != "" {
		dataDir = filepath.Join(env.Work, fmt.Sprintf("replay-data-%v", rec.on))
		if err := copyDir(filled, dataDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		syscall.Sync() // no writeback of the copy under the store's fsyncs
	}
	p, err := NewInProc(rec, env.Procs, dataDir)
	if err != nil {
		return nil, err
	}
	loop := RunLoop(ctx, plan, p, chk, d)
	p.Close()
	return &Replay{Loop: loop, Hits: p.hitReqs}, nil
}
