package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"plurality/internal/service"
)

// Answer is what one op got back.
type Answer struct {
	Status int
	Cache  string // X-Conserve-Cache
	Body   []byte
}

// Target sends ops: over loopback to a conserve process, or in-process
// through the same handler path (the traced replay).
type Target interface {
	Send(ctx context.Context, conn int, op Op) (Answer, error)
}

// HTTPTarget drives a server over loopback, one keep-alive TCP
// connection per client connection.
type HTTPTarget struct {
	base    string
	clients []*http.Client
}

// NewHTTPTarget returns a target with conns client connections.
func NewHTTPTarget(base string, conns int) *HTTPTarget {
	t := &HTTPTarget{base: base}
	for i := 0; i < conns; i++ {
		t.clients = append(t.clients, &http.Client{
			Timeout: 170 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
				IdleConnTimeout:     time.Minute,
			},
		})
	}
	return t
}

// Send implements Target.
func (t *HTTPTarget) Send(ctx context.Context, conn int, op Op) (Answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+op.Path, bytes.NewReader(op.Body))
	if err != nil {
		return Answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.clients[conn].Do(req)
	if err != nil {
		return Answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Status: resp.StatusCode, Cache: resp.Header.Get(service.CacheHeader), Body: body}, nil
}

// Close releases the idle connections.
func (t *HTTPTarget) Close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// Sample is one completed op.
type Sample struct {
	Conn   int     `json:"conn"`
	Step   int     `json:"step"`
	Class  string  `json:"class"`
	Cache  string  `json:"cache,omitempty"`
	Status int     `json:"status"`
	Start  float64 `json:"start_ms"`
	Ms     float64 `json:"latency_ms"`
	Bytes  int     `json:"bytes"`
	Failed string  `json:"failed,omitempty"`
}

// Cold reports whether the sample's answer was computed (a /run miss,
// or a sweep, whose points are all cold by construction).
func (s Sample) Cold() bool { return s.Class == ClassSweep || s.Cache == "miss" }

// LoopResult is a closed-loop run's raw outcome.
type LoopResult struct {
	Samples []Sample
	// Window runs from the first send to the last completion.
	Window time.Duration
	// Trials is the number of trials simulated by the ops that
	// completed correctly.
	Trials int
	// Sent counts what reached the server: /run requests and sweep
	// points; HitAnswers / MissAnswers count /run cache answers.
	RunRequests, SweepPoints, HitAnswers, MissAnswers int
	// Digest is the SHA-256 of the canonical response bytes of
	// connection 0's first DigestSteps ops ("" if they did not all
	// complete).
	Digest string
}

// Attempted and Failed count ops.
func (r *LoopResult) Attempted() int { return len(r.Samples) }

// Failed counts ops that failed, were refused or answered wrongly.
func (r *LoopResult) Failed() int {
	n := 0
	for _, s := range r.Samples {
		if s.Failed != "" {
			n++
		}
	}
	return n
}

// Checker verifies answers and remembers what it needs to verify later
// ones. It is safe for concurrent use.
type Checker struct {
	mu     sync.Mutex
	bodies map[string][32]byte          // key → hash of the first /run body seen
	sweeps map[int][]service.SweepPoint // sweep step → its lines (single-connection plans)
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{bodies: make(map[string][32]byte), sweeps: make(map[int][]service.SweepPoint)}
}

// sameBody checks that every body for key is byte-identical to the
// first one seen.
func (c *Checker) sameBody(key string, body []byte) error {
	h := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.bodies[key]; ok {
		if prev != h {
			return fmt.Errorf("body for key %.12s differs from the first answer", key)
		}
		return nil
	}
	c.bodies[key] = h
	return nil
}

// Check verifies one answer against its op; "" means correct.
func (c *Checker) Check(op Op, a Answer) string {
	if err := c.check(op, a); err != nil {
		return err.Error()
	}
	return ""
}

func (c *Checker) check(op Op, a Answer) error {
	if a.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", a.Status, bytes.TrimSpace(a.Body))
	}
	if op.Class == ClassSweep {
		return c.checkSweep(op, a)
	}
	switch {
	case op.Want != "" && a.Cache != op.Want:
		return fmt.Errorf("%s answered %s=%q, want %q", op.Class, service.CacheHeader, a.Cache, op.Want)
	case a.Cache != "hit" && a.Cache != "miss":
		return fmt.Errorf("%s answered %s=%q", op.Class, service.CacheHeader, a.Cache)
	}
	body := a.Body
	if op.Class == ClassTrace {
		last, err := checkTraceLines(body)
		if err != nil {
			return err
		}
		body = last
	}
	if op.Class != ClassHot {
		// A hot answer's bytes are compared with the fill phase's; the
		// other classes are decoded and checked field by field.
		if err := checkResponse(op, body); err != nil {
			return err
		}
	}
	if err := c.sameBody(op.Key, body); err != nil {
		return err
	}
	if op.Ref != nil {
		return c.checkFetch(op, body)
	}
	return nil
}

// checkResponse decodes a /run body and checks it against the request.
func checkResponse(op Op, body []byte) error {
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable /run body: %v", err)
	}
	if resp.Key != op.Key {
		return fmt.Errorf("key %.12s, want %.12s", resp.Key, op.Key)
	}
	if op.Req.Tier == service.TierAnalytic {
		p := resp.Analytic
		switch {
		case resp.Method != service.MethodAnalytic || p == nil:
			return fmt.Errorf("analytic request answered with method %q", resp.Method)
		case !(p.RoundsLo <= p.Rounds && p.Rounds <= p.RoundsHi):
			return fmt.Errorf("analytic rounds %g outside [%g, %g]", p.Rounds, p.RoundsLo, p.RoundsHi)
		}
		return nil
	}
	want := max(op.Req.Trials, 1)
	if resp.Method != "" || len(resp.Trials) != want || resp.Summary.Trials != want {
		return fmt.Errorf("simulation answer has method %q and %d/%d trials, want %d", resp.Method, len(resp.Trials), resp.Summary.Trials, want)
	}
	return nil
}

// checkTraceLines checks a ?trace=1 NDJSON body: trace points, then the
// canonical response line without a trace. It returns that last line.
func checkTraceLines(body []byte) ([]byte, error) {
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("trace stream has %d lines, want points and a summary", len(lines))
	}
	last := lines[len(lines)-1]
	var resp service.Response
	if err := json.Unmarshal(last, &resp); err != nil || resp.Key == "" || resp.Trace != nil {
		return nil, fmt.Errorf("trace stream does not end in a trace-free response line")
	}
	for _, l := range lines[:len(lines)-1] {
		if !json.Valid(l) {
			return nil, fmt.Errorf("trace stream has an invalid line")
		}
	}
	return last, nil
}

func (c *Checker) checkSweep(op Op, a Answer) error {
	sc := bufio.NewScanner(bytes.NewReader(a.Body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var got []service.SweepPoint
	for sc.Scan() {
		var p service.SweepPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("sweep line %d undecodable: %v", len(got), err)
		}
		got = append(got, p)
	}
	if len(got) != len(op.Points) {
		return fmt.Errorf("sweep streamed %d lines, want one per point (%d)", len(got), len(op.Points))
	}
	for i, q := range op.Points {
		p := got[i]
		val := q.N
		if op.Sweep.Sweep == "k" {
			val = int64(q.K)
		}
		if p.Key != q.Key() || p.Protocol != q.Protocol || p.Value != val {
			return fmt.Errorf("sweep line %d is %s=%d %s, want %d %s in canonical order", i, p.Sweep, p.Value, p.Protocol, val, q.Protocol)
		}
		if p.Summary.Trials != max(q.Trials, 1) {
			return fmt.Errorf("sweep line %d summarises %d trials, want %d", i, p.Summary.Trials, q.Trials)
		}
	}
	c.mu.Lock()
	c.sweeps[op.Step] = got
	c.mu.Unlock()
	return nil
}

func (c *Checker) checkFetch(op Op, body []byte) error {
	c.mu.Lock()
	lines, ok := c.sweeps[op.Ref.Step]
	c.mu.Unlock()
	if !ok || op.Ref.Index >= len(lines) {
		return fmt.Errorf("fetch of sweep step %d point %d has no sweep line to compare", op.Ref.Step, op.Ref.Index)
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	line := lines[op.Ref.Index]
	if resp.Key != line.Key || resp.Summary != line.Summary {
		return fmt.Errorf("/run of sweep point %d disagrees with its sweep line", op.Ref.Index)
	}
	return nil
}

// errStopped ends a connection that was waiting for a partner who has
// already stopped.
var errStopped = errors.New("stopped")

// joinBarrier lines the connections up on a join step, so they send the
// identical request at once.
type joinBarrier struct {
	mu      sync.Mutex
	n       int
	waiting map[int]*barrierSlot
	stop    chan struct{}
	once    sync.Once
}

type barrierSlot struct {
	arrived int
	ready   chan struct{}
}

func newJoinBarrier(n int) *joinBarrier {
	return &joinBarrier{n: n, waiting: make(map[int]*barrierSlot), stop: make(chan struct{})}
}

func (b *joinBarrier) wait(step int) error {
	b.mu.Lock()
	s, ok := b.waiting[step]
	if !ok {
		s = &barrierSlot{ready: make(chan struct{})}
		b.waiting[step] = s
	}
	s.arrived++
	if s.arrived == b.n {
		close(s.ready)
		delete(b.waiting, step)
	}
	b.mu.Unlock()
	select {
	case <-s.ready:
		return nil
	case <-b.stop:
		return errStopped
	}
}

func (b *joinBarrier) halt() { b.once.Do(func() { close(b.stop) }) }

// RunLoop drives the plan closed-loop against the target: each
// connection sends its next op only after the previous answer, until
// the duration has passed; ops in flight at the deadline complete and
// count. Check failures are recorded on the samples.
func RunLoop(ctx context.Context, plan *Plan, target Target, chk *Checker, d time.Duration) *LoopResult {
	res := &LoopResult{}
	var mu sync.Mutex
	barrier := newJoinBarrier(plan.Conns)
	start := time.Now()
	deadline := start.Add(d)
	var last time.Time
	digest := sha256.New()
	digestDone := 0

	var wg sync.WaitGroup
	for conn := 0; conn < plan.Conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			defer barrier.halt()
			for step := 0; ctx.Err() == nil && time.Now().Before(deadline); step++ {
				op := plan.Next(conn, step)
				if op.Class == ClassJoin && barrier.wait(step) != nil {
					return
				}
				t0 := time.Now()
				a, err := target.Send(ctx, conn, op)
				t1 := time.Now()
				s := Sample{Conn: conn, Step: step, Class: op.Class, Cache: a.Cache, Status: a.Status,
					Start: ms(t0.Sub(start)), Ms: ms(t1.Sub(t0)), Bytes: len(a.Body)}
				if err != nil {
					s.Failed = err.Error()
				} else {
					s.Failed = chk.Check(op, a)
				}
				mu.Lock()
				res.Samples = append(res.Samples, s)
				if t1.After(last) {
					last = t1
				}
				if op.Class == ClassSweep {
					res.SweepPoints += len(op.Points)
				} else {
					res.RunRequests++
					switch a.Cache {
					case "hit":
						res.HitAnswers++
					case "miss":
						res.MissAnswers++
					}
				}
				if s.Failed == "" {
					res.Trials += op.Trials
				}
				if conn == 0 && step < plan.DigestSteps && step == digestDone {
					fmt.Fprintf(digest, "%d %s\n", step, op.Path)
					digest.Write(a.Body)
					digestDone++
				}
				mu.Unlock()
			}
		}(conn)
	}
	wg.Wait()
	res.Window = last.Sub(start)
	if digestDone == plan.DigestSteps {
		res.Digest = hex.EncodeToString(digest.Sum(nil))
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
