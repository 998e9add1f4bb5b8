package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/service"
)

// Node roles.
type Role string

const (
	// RoleCoordinator nodes accept client requests, own a consistent-hash
	// slice of the request keys, dispatch the shards of the jobs they
	// own, and merge the results.
	RoleCoordinator Role = "coordinator"
	// RoleWorker nodes execute shards and host their slice of the fleet
	// cache.
	RoleWorker Role = "worker"
)

// retryPause is how long a shard waits after every worker has failed it
// once before the next pass over the workers.
const retryPause = 250 * time.Millisecond

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// ID is this node's unique cluster ID.
	ID string
	// Role is coordinator or worker.
	Role Role
	// Peers maps every node ID (self included) to its base URL
	// (e.g. "http://127.0.0.1:8081"). The set must agree fleet-wide:
	// the consistent-hash rings and shard plans derive from it.
	Peers map[string]string
	// Coordinators lists the coordinator IDs; request keys are owned by
	// consistent hashing over this set.
	Coordinators []string
	// Parallelism bounds trial parallelism for shards executed here.
	Parallelism int
	// LeaseTimeout bounds every intra-cluster call: a shard execution
	// on a worker (past it the shard moves to the next worker), a
	// forward to the key's owner (past it this coordinator dispatches
	// the job itself), and a fleet-cache read or write (default 2m).
	LeaseTimeout time.Duration
	// Client issues intra-cluster HTTP (default: a pooled client).
	Client HTTPDoer
	// Logf, when non-nil, receives node lifecycle logs.
	Logf func(format string, args ...any)
}

// Node is one member of a conserve cluster. Coordinators implement
// service.Remote, which is how the local Runner routes jobs through the
// fleet: a job is dispatched by its key's owning coordinator, which
// runs the shards on workers and merges them. Every node hosts a slice
// of the fleet-wide result cache.
type Node struct {
	cfg     NodeConfig
	client  HTTPDoer
	ring    *Ring // every peer: fleet-cache placement
	owners  *Ring // coordinators: job ownership
	workers *Ring // workers: shard placement

	mu      sync.Mutex
	cache   map[string][]byte
	flights map[string]*flight // dispatches in progress, by key

	jobs            atomic.Uint64
	shardExecutions atomic.Uint64
	requeues        atomic.Uint64
	peerCacheHits   atomic.Uint64
}

// flight is one dispatch in progress, shared by every concurrent caller
// for its key.
type flight struct {
	done chan struct{}
	resp *service.Response
	err  error
}

// NewNode validates the configuration and builds the node's rings.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" || cfg.Peers[cfg.ID] == "" {
		return nil, fmt.Errorf("cluster: node ID %q missing from peer set", cfg.ID)
	}
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("cluster: no coordinators configured")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	isCoord := make(map[string]bool, len(cfg.Coordinators))
	for _, c := range cfg.Coordinators {
		if cfg.Peers[c] == "" {
			return nil, fmt.Errorf("cluster: coordinator %q missing from peer set", c)
		}
		isCoord[c] = true
	}
	peers := slices.Sorted(maps.Keys(cfg.Peers))
	var workers []string
	for _, p := range peers {
		if !isCoord[p] {
			workers = append(workers, p)
		}
	}
	n := &Node{
		cfg:     cfg,
		client:  cfg.Client,
		ring:    NewRing(peers),
		owners:  NewRing(cfg.Coordinators),
		workers: NewRing(workers),
		cache:   make(map[string][]byte),
		flights: make(map[string]*flight),
	}
	if n.client == nil {
		n.client = defaultHTTPClient()
	}
	return n, nil
}

func shardID(key string, shard int) string { return fmt.Sprintf("%s#%d", key, shard) }

// ShardRange is one index-contiguous trial range [Lo, Hi).
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// PlanShards splits trials into at most parts index-contiguous ranges
// of near-equal size (the first trials%parts ranges get one extra).
// The plan depends only on the trial count and the worker count, so
// every coordinator tiles a request the same way.
func PlanShards(trials, parts int) []ShardRange {
	if parts < 1 {
		parts = 1
	}
	if parts > trials {
		parts = trials
	}
	base, extra := trials/parts, trials%parts
	var out []ShardRange
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, ShardRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// ExecuteShardLocal runs one shard on this node via the deterministic
// service shard path. The result is byte-identical to the same trial
// range of a single-process run by the (seed, trial) stream contract.
func (n *Node) ExecuteShardLocal(ctx context.Context, q service.Request, lo, hi int) (*service.ShardResult, error) {
	res, err := service.ExecuteShard(ctx, q, n.cfg.Parallelism, lo, hi)
	if err == nil {
		n.shardExecutions.Add(1)
	}
	return res, err
}

// Run implements service.Remote for coordinator nodes. The key's owning
// coordinator dispatches the job; any other coordinator forwards the
// request to the owner's POST /cluster/run, bounded by the lease
// timeout. The owner serves a forward in its HTTP handler, outside its
// Runner, so a forward never waits for a Runner slot that the owner's
// own forwards may hold: coordinators forwarding to each other cannot
// deadlock. If the forward fails for any reason (dead, hung or draining
// owner), this coordinator dispatches the job itself: the shards are
// pure functions of the request, so the bytes are the same.
func (n *Node) Run(ctx context.Context, req service.Request) (*service.Response, error) {
	if n.cfg.Role != RoleCoordinator || len(n.workers.Peers()) == 0 {
		return nil, service.ErrNotClustered
	}
	q := req.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Tier == service.TierAnalytic || q.Trials < 1 {
		return nil, service.ErrNotClustered
	}
	key := q.Key()
	if owner := n.owners.Owner(key); owner != n.cfg.ID {
		var resp service.Response
		err := n.roundTrip(ctx, owner, "/cluster/run", q, &resp)
		if err == nil {
			return &resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		n.cfg.Logf("cluster: forward %s to owner %s failed: %v; dispatching here", key, owner, err)
	}
	return n.own(ctx, q, key)
}

// own runs a job this coordinator dispatches, whether its own Runner
// asked or another coordinator forwarded it. Concurrent calls for a key
// share one dispatch, and the first caller reads the fleet cache before
// dispatching, so a key runs once fleet-wide while its owner is up. A
// caller whose shared dispatch failed (its first caller gave up) tries
// again under its own ctx.
func (n *Node) own(ctx context.Context, q service.Request, key string) (*service.Response, error) {
	for {
		n.mu.Lock()
		f, joined := n.flights[key]
		if !joined {
			f = &flight{done: make(chan struct{})}
			n.flights[key] = f
		}
		n.mu.Unlock()
		if !joined {
			if resp, ok := n.Lookup(ctx, key); ok {
				f.resp = resp
			} else {
				f.resp, f.err = n.dispatch(ctx, q, key)
			}
			n.mu.Lock()
			delete(n.flights, key)
			n.mu.Unlock()
			close(f.done)
			return f.resp, f.err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-f.done:
		}
		if f.err == nil {
			return f.resp, nil
		}
	}
}

// dispatch runs every shard of q on the workers, merges the results and
// writes the canonical bytes through the fleet cache.
func (n *Node) dispatch(ctx context.Context, q service.Request, key string) (*service.Response, error) {
	n.jobs.Add(1)
	plan := PlanShards(q.Trials, len(n.workers.Peers()))
	shards := make([]*service.ShardResult, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for i, s := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i], errs[i] = n.runShard(ctx, q, shardID(key, i), s)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d of %s: %w", i, key, err)
		}
	}
	resp, err := service.MergeShards(q, shards)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	n.cachePut(ctx, key, body)
	return resp, nil
}

// runShard executes one shard, first on the ring owner of id, then on
// each next worker in ring order after a failure (a requeue). After a
// full pass of failures it pauses for retryPause and starts over, until
// ctx ends.
func (n *Node) runShard(ctx context.Context, q service.Request, id string, s ShardRange) (*service.ShardResult, error) {
	order := n.workers.Owners(id, len(n.workers.Peers()))
	for attempt := 0; ; attempt++ {
		worker := order[attempt%len(order)]
		res, err := n.executeOn(ctx, worker, q, s)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		n.requeues.Add(1)
		n.cfg.Logf("cluster: shard %s on %s failed: %v", id, worker, err)
		if (attempt+1)%len(order) != 0 {
			continue
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(retryPause):
		}
	}
}

// Lookup implements service.Remote's read-through against the
// fleet-wide peer cache: ask the key's consistent-hash owner (then its
// successor) for cached canonical bytes.
func (n *Node) Lookup(ctx context.Context, key string) (*service.Response, bool) {
	for _, owner := range n.ring.Owners(key, 2) {
		var body []byte
		var ok bool
		if owner == n.cfg.ID {
			body, ok = n.cacheGetLocal(key)
		} else {
			body, ok = n.cacheGetRemote(ctx, owner, key)
		}
		if !ok {
			continue
		}
		var resp service.Response
		if json.Unmarshal(body, &resp) != nil {
			continue
		}
		n.peerCacheHits.Add(1)
		return &resp, true
	}
	return nil, false
}

// cachePut writes canonical response bytes to the key's ring owners
// (self included when owning). Best-effort: the cache is an
// optimization layered over the deterministic recompute path.
func (n *Node) cachePut(ctx context.Context, key string, body []byte) {
	for _, owner := range n.ring.Owners(key, 2) {
		if owner == n.cfg.ID {
			n.cacheSetLocal(key, body)
		} else {
			n.cachePutRemote(ctx, owner, key, body)
		}
	}
}

func (n *Node) cacheGetLocal(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	body, ok := n.cache[key]
	return body, ok
}

func (n *Node) cacheSetLocal(key string, body []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cache[key] = body
}

// NodeMetrics is the node's metric snapshot.
type NodeMetrics struct {
	// Jobs counts the jobs this coordinator dispatched.
	Jobs uint64
	// ShardExecutions counts the shards this node ran.
	ShardExecutions uint64
	// Requeues counts failed shard executions moved to the next worker.
	Requeues      uint64
	PeerCacheHits uint64
}

// Metrics returns current cluster counters.
func (n *Node) Metrics() NodeMetrics {
	return NodeMetrics{
		Jobs:            n.jobs.Load(),
		ShardExecutions: n.shardExecutions.Load(),
		Requeues:        n.requeues.Load(),
		PeerCacheHits:   n.peerCacheHits.Load(),
	}
}

// WriteMetrics appends the cluster's Prometheus-style lines; wired into
// /metrics via service.Extra.
func (n *Node) WriteMetrics(w io.Writer) {
	m := n.Metrics()
	// There is no leader any more; the gauge stays because perfbench's
	// fleet-readiness poll waits for conserve_cluster_leader 1 on the
	// coordinator.
	leader := 0
	if n.cfg.Role == RoleCoordinator {
		leader = 1
	}
	fmt.Fprintf(w, "# HELP conserve_cluster_leader 1 on every coordinator (each dispatches the keys it owns), 0 on workers.\n")
	fmt.Fprintf(w, "conserve_cluster_leader %d\n", leader)
	fmt.Fprintf(w, "# HELP conserve_cluster_jobs_total Jobs this coordinator dispatched to the workers.\n")
	fmt.Fprintf(w, "conserve_cluster_jobs_total %d\n", m.Jobs)
	fmt.Fprintf(w, "# HELP conserve_cluster_shard_executions_total Shards this node executed.\n")
	fmt.Fprintf(w, "conserve_cluster_shard_executions_total %d\n", m.ShardExecutions)
	fmt.Fprintf(w, "# HELP conserve_shard_requeues_total Failed shard executions moved to the next worker.\n")
	fmt.Fprintf(w, "conserve_shard_requeues_total %d\n", m.Requeues)
	fmt.Fprintf(w, "# HELP conserve_peer_cache_hits_total Requests served from another node's slice of the fleet cache.\n")
	fmt.Fprintf(w, "conserve_peer_cache_hits_total %d\n", m.PeerCacheHits)
}
