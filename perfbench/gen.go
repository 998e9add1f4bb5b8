package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"plurality/internal/service"
	"plurality/internal/trace"
)

// Op classes. A class fixes the cache answer a correct server gives
// (see Op.Want) and what the checks compare.
const (
	ClassHot      = "hot"      // Zipf repeat over a pre-computed key set
	ClassCold     = "cold"     // a key never sent before
	ClassAnalytic = "analytic" // analytic-tier answer, never sent before
	ClassTrace    = "trace"    // ?trace=1 NDJSON, never sent before
	ClassJoin     = "join"     // the same cold request on every connection at once
	ClassSweep    = "sweep"    // streamed POST /sweep, every point cold
	ClassFetch    = "fetch"    // /run of a request answered earlier in the run
)

// Op is one request a connection sends.
type Op struct {
	Step  int
	Class string
	Path  string
	Body  []byte
	// Req is the /run request (nil for sweeps); Key its canonical key.
	Req *service.Request
	Key string
	// Want is the X-Conserve-Cache answer a correct server gives: "hit",
	// "miss", or "" when either is right (a join partner that arrives
	// after the job finished is answered from the cache).
	Want string
	// Trials is the number of trials the op simulates when computed.
	Trials int
	// Sweep is the sweep request and Points its expanded points, in
	// canonical order (the order the NDJSON lines must come in).
	Sweep  *service.SweepRequest
	Points []service.Request
	// Ref, for a fetch of a sweep point, names the sweep's step and the
	// point's index: the fetched summary must equal the sweep line's.
	Ref *PointRef
}

// PointRef locates one line of an earlier sweep.
type PointRef struct{ Step, Index int }

// Plan is a workload's deterministic request schedule.
type Plan struct {
	// Conns is the number of concurrent client connections.
	Conns int
	// Fill is sent (untimed, on Conns connections) before the server is
	// restarted on its data dir; nil for workloads without one.
	Fill []Op
	// Next returns connection conn's op at step.
	Next func(conn, step int) Op
	// DigestSteps is how many leading steps of connection 0 the digest
	// of canonical response bytes covers.
	DigestSteps int
}

// mix64 is the SplitMix64 finaliser, used to derive independent
// streams from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive hashes the seed and the parts into one 64-bit value.
func derive(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ mix64(p+0x51ed27))
	}
	return h
}

// rngFor returns a generator for the stream named by seed and parts.
func rngFor(seed uint64, parts ...uint64) *rand.Rand {
	h := derive(seed, parts...)
	return rand.New(rand.NewPCG(h, mix64(h)))
}

// Stream tags keep the derived streams of one workload apart.
const (
	tagHot uint64 = iota + 1
	tagCold
	tagAnalytic
	tagTrace
	tagJoin
	tagPair
	tagConn
	tagSweep
	tagFetch
)

func runOp(step int, class string, q service.Request, want string) Op {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a service.Request always marshals
	}
	path := "/run"
	if class == ClassTrace {
		// The body names no trace spec: ?trace=1 makes the server use
		// the default one, which is then part of the key.
		path = "/run?trace=1"
		q.Trace = &trace.Spec{}
	}
	n := q.Normalize()
	trials := 0
	if class != ClassHot && class != ClassFetch && n.Tier != service.TierAnalytic {
		trials = max(n.Trials, 1)
	}
	return Op{Step: step, Class: class, Path: path, Body: body, Req: &n, Key: n.Key(), Want: want, Trials: trials}
}

func sweepOp(step int, sr service.SweepRequest) Op {
	points, err := sr.Points()
	if err != nil {
		panic(fmt.Sprintf("perfbench: bad sweep in generator: %v", err))
	}
	body, err := json.Marshal(sr)
	if err != nil {
		panic(err)
	}
	trials := 0
	for _, p := range points {
		trials += max(p.Trials, 1)
	}
	return Op{Step: step, Class: ClassSweep, Path: "/sweep", Body: body, Trials: trials, Sweep: &sr, Points: points}
}

// sweepGroup is a run of sweeps, each followed by fetches of some of
// its points: what a user reproducing the paper's figure does (sweep
// the k axis, then pull the per-trial detail of a few points).
type sweepGroup struct {
	sweeps  func(seed uint64) []service.SweepRequest
	fetches int
}

func (g sweepGroup) plan(seed uint64, digestSweeps int) *Plan {
	per := 1 + g.fetches
	nSweeps := len(g.sweeps(0))
	period := nSweeps * per
	return &Plan{
		Conns:       1,
		DigestSteps: digestSweeps * per,
		Next: func(_, step int) Op {
			cycle, within := step/period, step%period
			s, j := within/per, within%per
			sr := g.sweeps(derive(seed, tagSweep, uint64(cycle)))[s]
			if j == 0 {
				return sweepOp(step, sr)
			}
			points, _ := sr.Points()
			idx := rngFor(seed, tagFetch, uint64(step)).IntN(len(points))
			op := runOp(step, ClassFetch, points[idx], "hit")
			op.Ref = &PointRef{Step: step - j, Index: idx}
			return op
		},
	}
}

// PaperSweepPlan sweeps the k axis at n=10⁵ for 3-Majority (up to
// k=n) and 2-Choices, plus a Zipf-skewed slice for the density effect.
func PaperSweepPlan(seed uint64) *Plan {
	const n, trials = 100_000, 3
	return sweepGroup{fetches: 4, sweeps: func(s uint64) []service.SweepRequest {
		base := service.Request{N: n, Seed: s, Trials: trials}
		skew := base
		skew.Init, skew.InitParam = "zipf", 1.0
		return []service.SweepRequest{
			{Base: base, Sweep: "k", Values: []int64{2, 10, 100, 316, 1000, 10_000, 100_000}, Protocols: []string{"3-majority"}},
			{Base: base, Sweep: "k", Values: []int64{2, 10, 100, 316, 1000, 3162}, Protocols: []string{"2-choices"}},
			{Base: skew, Sweep: "k", Values: []int64{1000, 10_000}, Protocols: []string{"3-majority", "2-choices"}},
		}
	}}.plan(seed, 3)
}

// ClusterSweepPlan is a reduced paper sweep for the 3-node fleet.
func ClusterSweepPlan(seed uint64) *Plan {
	const n, trials = 100_000, 4
	return sweepGroup{fetches: 4, sweeps: func(s uint64) []service.SweepRequest {
		base := service.Request{N: n, Seed: s, Trials: trials}
		skew := base
		skew.Init, skew.InitParam = "zipf", 1.0
		return []service.SweepRequest{
			{Base: base, Sweep: "k", Values: []int64{2, 100, 1000, 10_000}, Protocols: []string{"3-majority"}},
			{Base: base, Sweep: "k", Values: []int64{2, 100, 1000}, Protocols: []string{"2-choices"}},
			{Base: skew, Sweep: "k", Values: []int64{1000}, Protocols: []string{"3-majority", "2-choices"}},
		}
	}}.plan(seed, 3)
}

// AgentModesPlan sends cold async, graph and gossip requests at
// conbench's shapes, each followed by repeats of earlier ones.
func AgentModesPlan(seed uint64) *Plan {
	const fetches = 4
	per := 1 + fetches
	shape := func(mode int, s uint64) service.Request {
		switch mode {
		case 0:
			return service.Request{Protocol: "3-majority", Mode: "async", N: 20_000, K: 8, Trials: 4, Seed: s}
		case 1:
			return service.Request{Protocol: "3-majority", Mode: "graph", N: 100_000, K: 8, Trials: 2, Seed: s}
		default:
			return service.Request{Protocol: "3-majority", Mode: "gossip", N: 2_000, K: 4, Trials: 4, Seed: s}
		}
	}
	cold := func(c int) service.Request { return shape(c%3, derive(seed, tagCold, uint64(c))) }
	return &Plan{
		Conns:       1,
		DigestSteps: 3 * per,
		Next: func(_, step int) Op {
			c, j := step/per, step%per
			if j == 0 {
				return runOp(step, ClassCold, cold(c), "miss")
			}
			// Repeat a cold request already answered: the latest one
			// first, then earlier ones at random.
			pick := c
			if j > 1 {
				pick = rngFor(seed, tagFetch, uint64(step)).IntN(c + 1)
			}
			return runOp(step, ClassFetch, cold(pick), "hit")
		},
	}
}

// Serve-hot shape.
const (
	hotKeys     = 1024 // several times the server's 256-entry LRU
	hotZipfS    = 1.1
	pJoin       = 0.005 // share of steps where every connection sends one request
	pHotOfConn  = 0.985
	pColdOfConn = 0.006
	pAnaOfConn  = 0.006 // the rest (0.003) are traced requests
)

// hotRequest is the i-th request of the pre-computed key set: a small
// sync job, ≈1 ms cold.
func hotRequest(seed uint64, i int) service.Request {
	proto := "3-majority"
	if i%2 == 1 {
		proto = "2-choices"
	}
	return service.Request{Protocol: proto, N: 10_000, K: 4 + (i/2)%8, Trials: 2, Seed: derive(seed, tagHot, uint64(i)) >> 1}
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// ServeHotPlan is the serving mix: Zipf repeats over a key set four
// times the LRU (pre-computed into the data dir by Fill), cold sync
// jobs, analytic-tier requests, dedup joins and traced requests.
func ServeHotPlan(seed uint64, conns int) *Plan {
	cdf := zipfCDF(hotKeys, hotZipfS)
	// Zipf rank r maps to a seed-dependent key, so the hot head is not
	// always the same requests.
	perm := rngFor(seed, tagHot).Perm(hotKeys)
	fill := make([]Op, hotKeys)
	for i := range fill {
		fill[i] = runOp(i, ClassCold, hotRequest(seed, i), "miss")
	}
	return &Plan{
		Conns:       conns,
		Fill:        fill,
		DigestSteps: 200,
		Next: func(conn, step int) Op {
			if rngFor(seed, tagPair, uint64(step)).Float64() < pJoin {
				// Heavier than the other cold jobs (≈5 ms), so the
				// partner reliably arrives while it runs.
				q := service.Request{Protocol: "3-majority", N: 100_000, K: 32, Trials: 4, Seed: derive(seed, tagJoin, uint64(step)) >> 1}
				op := runOp(step, ClassJoin, q, "")
				if conn != 0 {
					op.Trials = 0 // simulated once, counted once
				}
				return op
			}
			r := rngFor(seed, tagConn, uint64(conn), uint64(step))
			u := r.Float64()
			id := uint64(step)<<8 | uint64(conn)
			switch {
			case u < pHotOfConn:
				rank := sort.SearchFloat64s(cdf, r.Float64())
				op := fill[perm[min(rank, hotKeys-1)]]
				op.Step, op.Class, op.Want, op.Trials = step, ClassHot, "hit", 0
				return op
			case u < pHotOfConn+pColdOfConn:
				q := service.Request{Protocol: "3-majority", N: 10_000, K: 4 + r.IntN(8), Trials: 2, Seed: derive(seed, tagCold, id) >> 1}
				return runOp(step, ClassCold, q, "miss")
			case u < pHotOfConn+pColdOfConn+pAnaOfConn:
				proto := "3-majority"
				if r.IntN(2) == 1 {
					proto = "2-choices"
				}
				// A distinct n per request keeps every analytic key cold.
				q := service.Request{Protocol: proto, Tier: service.TierAnalytic,
					N: 1_000_000_000 + int64(derive(seed, tagAnalytic, id)%1_000_000_000_000), K: 10 + r.IntN(10_000)}
				return runOp(step, ClassAnalytic, q, "miss")
			default:
				q := service.Request{Protocol: "3-majority", N: 10_000, K: 8, Trials: 1, Seed: derive(seed, tagTrace, id) >> 1}
				return runOp(step, ClassTrace, q, "miss")
			}
		},
	}
}

// PlanFor returns the named workload's plan for the seed.
func PlanFor(workload string, seed uint64, conns int) (*Plan, error) {
	switch workload {
	case "paper-sweep":
		return PaperSweepPlan(seed), nil
	case "serve-hot":
		return ServeHotPlan(seed, conns), nil
	case "agent-modes":
		return AgentModesPlan(seed), nil
	case "cluster-sweep":
		return ClusterSweepPlan(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-sweep, serve-hot, agent-modes or cluster-sweep)", workload)
}
