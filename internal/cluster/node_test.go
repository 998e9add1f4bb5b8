package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/service"
)

// lateHandler lets the httptest server exist before the node whose
// Handler it serves (the node needs every peer URL at construction).
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testCluster struct {
	nodes    map[string]*Node
	runners  map[string]*service.Runner
	servers  map[string]*httptest.Server
	handlers map[string]*lateHandler
}

var (
	testCoordinators = []string{"c1", "c2"}
	testWorkers      = []string{"w1", "w2", "w3"}
)

// newTestCluster stands up an in-process fleet over loopback HTTP:
// 2 coordinators (c1, c2) + 3 workers (w1..w3). Coordinators serve the
// production wiring — a Runner routing through the node plus the
// node's /cluster/ routes, which take the other coordinator's forwards;
// workers serve the /cluster/ routes.
func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	return newTestClusterWith(t, 30*time.Second, 0)
}

// newTestClusterWith is newTestCluster with the nodes' lease timeout
// and the coordinator Runners' worker count (0 = the default).
func newTestClusterWith(t *testing.T, lease time.Duration, runnerWorkers int) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:    make(map[string]*Node),
		runners:  make(map[string]*service.Runner),
		servers:  make(map[string]*httptest.Server),
		handlers: make(map[string]*lateHandler),
	}
	ids := append(slices.Clone(testCoordinators), testWorkers...)
	peers := make(map[string]string)
	for _, id := range ids {
		lh := &lateHandler{}
		srv := httptest.NewServer(lh)
		tc.handlers[id] = lh
		tc.servers[id] = srv
		peers[id] = srv.URL
	}
	t.Cleanup(tc.close)
	for _, id := range ids {
		role := RoleWorker
		if slices.Contains(testCoordinators, id) {
			role = RoleCoordinator
		}
		n, err := NewNode(NodeConfig{
			ID:           id,
			Role:         role,
			Peers:        peers,
			Coordinators: testCoordinators,
			Parallelism:  2,
			LeaseTimeout: lease,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		tc.nodes[id] = n
		if role == RoleWorker {
			tc.handlers[id].set(n.Handler())
			continue
		}
		rn := service.NewRunner(service.Options{Workers: runnerWorkers, Remote: n})
		tc.runners[id] = rn
		tc.handlers[id].set(service.NewServerWith(rn, service.Extra{
			Routes: map[string]http.Handler{"/cluster/": n.Handler()},
		}))
	}
	return tc
}

func (tc *testCluster) close() {
	for _, rn := range tc.runners {
		rn.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
}

// owner is the coordinator that dispatches key's job.
func (tc *testCluster) owner(key string) *Node {
	return tc.nodes[tc.nodes["c1"].owners.Owner(key)]
}

// follower is the coordinator that does not own key, so a Run through
// it exercises the forward to the owner.
func (tc *testCluster) follower(key string) *Node {
	if tc.owner(key) == tc.nodes["c1"] {
		return tc.nodes["c2"]
	}
	return tc.nodes["c1"]
}

// count sums one counter over the named nodes.
func (tc *testCluster) count(ids []string, counter func(NodeMetrics) uint64) uint64 {
	var total uint64
	for _, id := range ids {
		total += counter(tc.nodes[id].Metrics())
	}
	return total
}

// ndecided counts the jobs dispatched fleet-wide, in the style of the
// Paxos test harness's ndecided: a dispatch is a key's one decision.
func (tc *testCluster) ndecided() uint64 {
	return tc.count(testCoordinators, func(m NodeMetrics) uint64 { return m.Jobs })
}

// nexecuted counts the shards the workers ran.
func (tc *testCluster) nexecuted() uint64 {
	return tc.count(testWorkers, func(m NodeMetrics) uint64 { return m.ShardExecutions })
}

// checkmax fails the test when more than max jobs were dispatched
// fleet-wide.
func (tc *testCluster) checkmax(t *testing.T, max uint64) {
	t.Helper()
	if nd := tc.ndecided(); nd > max {
		t.Fatalf("too many decided: ndecided=%d max=%d", nd, max)
	}
}

// groundTruth is the request's canonical single-process bytes.
func groundTruth(t *testing.T, req service.Request) []byte {
	t.Helper()
	want, err := service.ExecuteParallel(req, 4)
	if err != nil {
		t.Fatalf("local ground truth: %v", err)
	}
	wantJSON, _ := json.Marshal(want)
	return wantJSON
}

// TestNodeClusterByteIdentity runs a request through the cluster from
// the coordinator that does not own its key and expects the exact bytes
// of a single-process run, one dispatch (by the owner) of one shard per
// worker, and a peer-cache hit afterwards.
func TestNodeClusterByteIdentity(t *testing.T) {
	tc := newTestCluster(t)
	req := service.Request{Protocol: "3-majority", N: 600, K: 5, Seed: 42, Trials: 7}
	wantJSON := groundTruth(t, req)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	key := req.Normalize().Key()
	got, err := tc.follower(key).Run(ctx, req)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("cluster response differs from single-process run:\n%s\n%s", gotJSON, wantJSON)
	}

	if ne := tc.nexecuted(); ne != 3 {
		t.Fatalf("workers executed %d shards, want one per worker (3)", ne)
	}
	if jobs := tc.owner(key).Metrics().Jobs; jobs != 1 || tc.ndecided() != 1 {
		t.Fatalf("owner dispatched %d jobs, fleet %d; want exactly one coordinator with 1", jobs, tc.ndecided())
	}

	// Read-through: any coordinator finds the cached canonical bytes.
	for _, id := range testCoordinators {
		cached, ok := tc.nodes[id].Lookup(ctx, key)
		if !ok {
			t.Fatalf("%s: peer-cache lookup missed after completion", id)
		}
		cachedJSON, _ := json.Marshal(cached)
		if string(cachedJSON) != string(wantJSON) {
			t.Fatalf("%s: cached bytes differ from ground truth", id)
		}
	}
	if tc.count(testCoordinators, func(m NodeMetrics) uint64 { return m.PeerCacheHits }) == 0 {
		t.Fatal("peer cache hits not counted")
	}
}

// TestNodeClusterDedup sends the same request through both
// coordinators' Runners concurrently: the fleet dispatches one job and
// runs each shard once, and both callers get identical bytes.
func TestNodeClusterDedup(t *testing.T) {
	tc := newTestCluster(t)
	req := service.Request{Protocol: "2-choices", N: 400, K: 4, Seed: 7, Trials: 6}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	results := make([]*service.Response, len(testCoordinators))
	errs := make([]error, len(testCoordinators))
	for i, id := range testCoordinators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = tc.runners[id].Do(ctx, req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	a, _ := json.Marshal(results[0])
	b, _ := json.Marshal(results[1])
	if string(a) != string(b) {
		t.Fatalf("concurrent submitters saw different bytes:\n%s\n%s", a, b)
	}
	if nd := tc.ndecided(); nd != 1 {
		t.Fatalf("fleet dispatched %d jobs, want 1 (cluster-wide dedup)", nd)
	}
	tc.checkmax(t, 1)
	if ne, want := tc.nexecuted(), uint64(len(PlanShards(6, 3))); ne != want {
		t.Fatalf("workers executed %d shards, want %d (each shard once)", ne, want)
	}
}

// TestNodeWorkerFailureRequeues kills one worker's HTTP surface before
// the run: its shard executions fail and rotate to live workers; the
// run still completes with the single-process bytes.
func TestNodeWorkerFailureRequeues(t *testing.T) {
	tc := newTestCluster(t)
	// Dead worker: still a registered peer but refuses every request.
	tc.handlers["w2"].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "killed", http.StatusBadGateway)
	}))

	// Pick a seed whose first-attempt shard placement hits the dead
	// worker (placement is a pure function of key and worker set).
	ring := NewRing(testWorkers)
	var req service.Request
	for seed := uint64(1); ; seed++ {
		req = service.Request{Protocol: "3-majority", N: 500, K: 4, Seed: seed, Trials: 6}
		key := req.Normalize().Key()
		hit := false
		for i := 0; i < 3; i++ {
			if ring.Owner(shardID(key, i)) == "w2" {
				hit = true
			}
		}
		if hit {
			break
		}
	}
	wantJSON := groundTruth(t, req)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := tc.follower(req.Normalize().Key()).Run(ctx, req)
	if err != nil {
		t.Fatalf("cluster run with dead worker: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("bytes diverged after worker failure")
	}
	if tc.count(testCoordinators, func(m NodeMetrics) uint64 { return m.Requeues }) == 0 {
		t.Fatal("dead worker's shard was never requeued")
	}
}

// TestNodeDeadOwnerFallsBack makes the key's owning coordinator fail:
// it answers 502 to everything, or it hangs without answering. The
// other coordinator's forward fails or runs out its lease timeout, so
// it dispatches the job itself and still returns the single-process
// bytes.
func TestNodeDeadOwnerFallsBack(t *testing.T) {
	for _, tt := range []struct {
		name  string
		owner http.HandlerFunc
	}{
		{"502", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "dead", http.StatusBadGateway)
		}},
		{"hung", func(w http.ResponseWriter, r *http.Request) {
			// Read the request, then never answer. (The server only
			// notices the client leaving once the body is consumed.)
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestClusterWith(t, 2*time.Second, 0)
			req := service.Request{Protocol: "3-majority", N: 600, K: 5, Seed: 9, Trials: 5}
			key := req.Normalize().Key()
			owner, other := tc.owner(key), tc.follower(key)
			tc.handlers[owner.cfg.ID].set(tt.owner)
			wantJSON := groundTruth(t, req)

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, err := other.Run(ctx, req)
			if err != nil {
				t.Fatalf("cluster run with dead owner: %v", err)
			}
			gotJSON, _ := json.Marshal(got)
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("fallback dispatch differs from single-process run:\n%s\n%s", gotJSON, wantJSON)
			}
			if jobs := other.Metrics().Jobs; jobs != 1 {
				t.Fatalf("non-owner dispatched %d jobs, want 1", jobs)
			}
			if jobs := owner.Metrics().Jobs; jobs != 0 {
				t.Fatalf("dead owner dispatched %d jobs, want 0", jobs)
			}
		})
	}
}

// TestNodeCrossForwardsDoNotDeadlock gives each coordinator's Runner a
// single worker and sends each coordinator, at the same time, a key the
// other one owns. Both forwards are held back until both have arrived,
// so each owner receives a forward while its only Runner slot is busy
// forwarding the other way. Both jobs must still finish well inside the
// lease timeout, each dispatched once, by its owner.
func TestNodeCrossForwardsDoNotDeadlock(t *testing.T) {
	tc := newTestClusterWith(t, 30*time.Second, 1)
	var posts atomic.Int32
	both := make(chan struct{})
	for _, id := range testCoordinators {
		inner := tc.handlers[id].h
		tc.handlers[id].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				if posts.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-r.Context().Done():
					return
				}
			}
			inner.ServeHTTP(w, r)
		}))
	}

	// One request per coordinator, owned by the other one.
	reqs := make(map[string]service.Request)
	for seed := uint64(1); len(reqs) < len(testCoordinators); seed++ {
		req := service.Request{Protocol: "3-majority", N: 500, K: 4, Seed: seed, Trials: 3}
		via := tc.follower(req.Normalize().Key()).cfg.ID
		if _, ok := reqs[via]; !ok {
			reqs[via] = req
		}
	}
	want := make(map[string][]byte)
	for via, req := range reqs {
		want[via] = groundTruth(t, req)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	got := make(map[string][]byte)
	errs := make(map[string]error)
	var mu sync.Mutex
	for via, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := tc.runners[via].Do(ctx, req)
			body, _ := json.Marshal(resp)
			mu.Lock()
			defer mu.Unlock()
			got[via], errs[via] = body, err
		}()
	}
	wg.Wait()
	for via := range reqs {
		if errs[via] != nil {
			t.Fatalf("run through %s: %v", via, errs[via])
		}
		if string(got[via]) != string(want[via]) {
			t.Fatalf("run through %s differs from single-process run", via)
		}
	}
	for _, id := range testCoordinators {
		if jobs := tc.nodes[id].Metrics().Jobs; jobs != 1 {
			t.Fatalf("%s dispatched %d jobs, want 1 (its own key, no fallback)", id, jobs)
		}
	}
}

// TestPlanShards checks the plan tiles [0, trials) contiguously with
// near-equal sizes for assorted shapes.
func TestPlanShards(t *testing.T) {
	for _, tc := range []struct{ trials, parts, want int }{
		{10, 3, 3}, {10, 1, 1}, {3, 5, 3}, {1, 1, 1}, {100, 7, 7}, {5, 0, 1},
	} {
		plan := PlanShards(tc.trials, tc.parts)
		if len(plan) != tc.want {
			t.Errorf("PlanShards(%d, %d) = %d shards, want %d", tc.trials, tc.parts, len(plan), tc.want)
			continue
		}
		lo := 0
		minSz, maxSz := tc.trials, 0
		for _, s := range plan {
			if s.Lo != lo {
				t.Fatalf("PlanShards(%d, %d): gap/overlap at %d (plan %v)", tc.trials, tc.parts, lo, plan)
			}
			if sz := s.Hi - s.Lo; sz > 0 {
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			} else {
				t.Fatalf("PlanShards(%d, %d): empty shard %v", tc.trials, tc.parts, s)
			}
			lo = s.Hi
		}
		if lo != tc.trials {
			t.Fatalf("PlanShards(%d, %d) tiles to %d, want %d", tc.trials, tc.parts, lo, tc.trials)
		}
		if maxSz-minSz > 1 {
			t.Errorf("PlanShards(%d, %d) sizes range [%d, %d], want near-equal", tc.trials, tc.parts, minSz, maxSz)
		}
	}
}
