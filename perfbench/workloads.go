package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"plurality/internal/service"
)

// Env is what every workload run needs.
type Env struct {
	Bin     string // conserve binary
	Work    string // this run's working directory (emptied per run)
	Seed    uint64
	Seconds int
	Conns   int // client connections: at most nproc
	Procs   int // server GOMAXPROCS: at most nproc
	Log     func(format string, args ...any)
}

// setupStarts is how many times each workload starts its server(s) to
// measure set-up time; the median is reported.
var setupStarts = map[string]int{"paper-sweep": 11, "serve-hot": 11, "agent-modes": 11, "cluster-sweep": 3}

// warmSteps is how many ops of a differently seeded plan warm the
// measured server's lazy set-up before timing.
var warmSteps = map[string]int{"paper-sweep": 1, "serve-hot": 60, "agent-modes": 11, "cluster-sweep": 1}

// Phase is the outcome of driving real conserve processes.
type Phase struct {
	Loop     *LoopResult
	Setup    []float64 // seconds from exec to ready, per start
	Election []float64 // cluster: seconds from every node healthy to a leader
	Replay   []float64 // conserve_journal_replay_seconds after each restart
	// Delta holds the /metrics deltas of the measured server (the
	// coordinator for the cluster); FleetDelta sums every node's.
	Delta, FleetDelta map[string]float64
	ServerCPU         time.Duration // all measured server processes
	LoadgenCPU        time.Duration // this process, over the same window
	HostSteal         float64       // share of the host's CPU time stolen by the hypervisor during the window
	HostIOWait        float64       // share of the host's CPU time idle waiting for I/O during the window
	PeakRSSKB         int64         // sum of VmHWM over the measured processes
	JournalBytes      int64         // growth of journal.log during the timed window
	ResultsBytes      int64         // size of results/ at the end
	ClusterLogBytes   int64         // growth of the coordinator's cluster.journal
	ColdKeys          int           // distinct keys the timed window sent cold
	OverheadMs        float64       // cluster: coordinator minus single-node latency, tiny request
	CheckErrors       []string      // counter totals that disagree with what was sent
}

// fleet is a set of servers, the first of which receives the load.
type fleet struct {
	servers []*Server
	dirs    []string
}

func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Stop()
	}
	f.servers = nil
}

func (f *fleet) front() *Server { return f.servers[0] }

// startSingle starts one conserve and waits until it answers /healthz.
func startSingle(ctx context.Context, env *Env, name string, args []string) (*fleet, float64, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s, err := StartServer(ServerConfig{Bin: env.Bin, Name: name, Addr: addr, Args: args,
		LogPath: filepath.Join(env.Work, name+".log"), GOMAXPROCS: env.Procs})
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{servers: []*Server{s}}
	if err := s.WaitHealthy(ctx, 60*time.Second); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(t0).Seconds(), nil
}

// startCluster starts the README's 3-node loopback fleet (coordinator
// c1, workers w1 and w2, -parallelism 1), each with its own fresh data
// dir, and waits until every node is healthy and c1 leads the ledger.
func startCluster(ctx context.Context, env *Env) (*fleet, float64, float64, error) {
	ids := []string{"c1", "w1", "w2"}
	addrs := make([]string, len(ids))
	var peers []string
	for i, id := range ids {
		a, err := freePort()
		if err != nil {
			return nil, 0, 0, err
		}
		addrs[i] = a
		peers = append(peers, id+"=http://"+a)
	}
	f := &fleet{}
	t0 := time.Now()
	for i, id := range ids {
		role := "worker"
		if i == 0 {
			role = "coordinator"
		}
		dir := filepath.Join(env.Work, "data-"+id)
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, 0, err
		}
		s, err := StartServer(ServerConfig{Bin: env.Bin, Name: id, Addr: addrs[i], GOMAXPROCS: env.Procs,
			LogPath: filepath.Join(env.Work, id+".log"),
			Args: []string{"-cluster", role, "-node-id", id, "-peers", strings.Join(peers, ","),
				"-coordinators", "c1", "-parallelism", "1", "-data-dir", dir}})
		if err != nil {
			f.stop()
			return nil, 0, 0, err
		}
		f.servers = append(f.servers, s)
		f.dirs = append(f.dirs, dir)
	}
	for _, s := range f.servers {
		if err := s.WaitHealthy(ctx, 60*time.Second); err != nil {
			f.stop()
			return nil, 0, 0, err
		}
	}
	healthy := time.Since(t0).Seconds()
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := f.front().Metrics()
		if err == nil && m["conserve_cluster_leader"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, 0, 0, fmt.Errorf("cluster: no leader after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	total := time.Since(t0).Seconds()
	return f, total, total - healthy, nil
}

// fill sends ops untimed on conns connections, checking each answer and
// remembering its body for the byte-identity check of later hits.
func fill(ctx context.Context, target Target, chk *Checker, ops []Op, conns int) error {
	errc := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			for i := c; i < len(ops); i += conns {
				a, err := target.Send(ctx, c, ops[i])
				if err == nil {
					if msg := chk.Check(ops[i], a); msg != "" {
						err = fmt.Errorf("fill op %d: %s", i, msg)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(c)
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warm sends the first n ops of a plan with another seed: same request
// shapes, none of the measured keys. Only the status is checked.
func warm(ctx context.Context, env *Env, workload string, target Target, n int) error {
	plan, err := PlanFor(workload, derive(env.Seed, 0x5741524d), env.Conns)
	if err != nil {
		return err
	}
	for step := 0; step < n; step++ {
		op := plan.Next(0, step)
		a, err := target.Send(ctx, 0, op)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if a.Status != 200 {
			return fmt.Errorf("warm-up: status %d", a.Status)
		}
	}
	return nil
}

func serverArgs(dataDir string) []string {
	args := []string{"-cache", "256"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// RunPhase starts the workload's server(s), measures set-up, warms
// up, drives the timed closed loop over loopback and collects the
// outside-in counters.
func RunPhase(ctx context.Context, env *Env, workload string, plan *Plan, chk *Checker, traced bool) (ph *Phase, err error) {
	ph = &Phase{}
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	dataDir := ""
	starts := setupStarts[workload]
	switch workload {
	case "cluster-sweep":
		for i := 0; i < starts; i++ {
			if f != nil {
				f.stop()
			}
			var setup, elect float64
			if f, setup, elect, err = startCluster(ctx, env); err != nil {
				return nil, err
			}
			ph.Setup = append(ph.Setup, setup)
			ph.Election = append(ph.Election, elect)
		}
	case "serve-hot":
		dataDir = filepath.Join(env.Work, "data")
		if f, _, err = startSingle(ctx, env, "fill", serverArgs(dataDir)); err != nil {
			return nil, err
		}
		ft := NewHTTPTarget(f.front().URL, plan.Conns)
		err = fill(ctx, ft, chk, plan.Fill, plan.Conns)
		ft.Close()
		f.stop()
		if err != nil {
			return nil, err
		}
		if traced {
			// The in-process replays start from this state.
			if err := copyDir(dataDir, filepath.Join(env.Work, "data-filled")); err != nil {
				return nil, err
			}
			syscall.Sync()
		}
		fallthrough
	default:
		// Start -1 is unmeasured: the first exec after a build pays for
		// a cold page cache that later starts, and users, do not.
		for i := -1; i < starts; i++ {
			if f != nil {
				f.stop()
			}
			var setup float64
			if f, setup, err = startSingle(ctx, env, "conserve", serverArgs(dataDir)); err != nil {
				return nil, err
			}
			if i < 0 {
				continue
			}
			ph.Setup = append(ph.Setup, setup)
			if dataDir != "" {
				m, err := f.front().Metrics()
				if err != nil {
					return nil, err
				}
				ph.Replay = append(ph.Replay, m["conserve_journal_replay_seconds"])
			}
		}
	}

	target := NewHTTPTarget(f.front().URL, plan.Conns)
	defer target.Close()
	if err := warm(ctx, env, workload, target, warmSteps[workload]); err != nil {
		return nil, err
	}

	before, err := scrapeAll(f)
	if err != nil {
		return nil, err
	}
	cpu0, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	self0, err := ReadProc("self")
	if err != nil {
		return nil, err
	}
	host0, err := ReadHostCPU()
	if err != nil {
		return nil, err
	}
	journal0 := FileSize(filepath.Join(dataDir, "journal.log"))
	clog0 := int64(0)
	if workload == "cluster-sweep" {
		clog0 = FileSize(filepath.Join(f.dirs[0], "cluster.journal"))
	}

	env.Log("timed window: %ds, %d connection(s)", env.Seconds, plan.Conns)
	ph.Loop = RunLoop(ctx, plan, target, chk, time.Duration(env.Seconds)*time.Second)

	cpu1, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	self1, err := ReadProc("self")
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(f)
	if err != nil {
		return nil, err
	}
	host1, err := ReadHostCPU()
	if err != nil {
		return nil, err
	}
	ph.HostSteal, ph.HostIOWait = host1.Since(host0)
	ph.ServerCPU = cpu1.CPU - cpu0.CPU
	ph.PeakRSSKB = cpu1.HWMKB
	ph.LoadgenCPU = self1.CPU - self0.CPU
	ph.Delta = Delta(before[0], after[0])
	ph.FleetDelta = map[string]float64{}
	for i := range after {
		for k, v := range Delta(before[i], after[i]) {
			ph.FleetDelta[k] += v
		}
	}
	if dataDir != "" {
		ph.JournalBytes = FileSize(filepath.Join(dataDir, "journal.log")) - journal0
		ph.ResultsBytes = DirSize(filepath.Join(dataDir, "results"))
	}
	if workload == "cluster-sweep" {
		ph.ClusterLogBytes = FileSize(filepath.Join(f.dirs[0], "cluster.journal")) - clog0
	}
	ph.ColdKeys = coldKeys(plan, ph.Loop)
	ph.CheckErrors = checkCounters(workload, ph)

	if traced && workload == "cluster-sweep" {
		ph.OverheadMs, err = clusterOverhead(ctx, env, target)
		if err != nil {
			return nil, err
		}
	}
	return ph, nil
}

func scrapeAll(f *fleet) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, s := range f.servers {
		m, err := s.Metrics()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// fleetCPU sums CPU time and peak RSS over the fleet's processes.
func fleetCPU(f *fleet) (ProcStat, error) {
	var sum ProcStat
	for _, s := range f.servers {
		ps, err := ReadProc(fmt.Sprint(s.Pid()))
		if err != nil {
			return sum, err
		}
		sum.CPU += ps.CPU
		sum.HWMKB += ps.HWMKB
	}
	return sum, nil
}

// coldKeys counts the distinct keys the timed window sent that had to
// be computed: /run misses, joins and every sweep point.
func coldKeys(plan *Plan, loop *LoopResult) int {
	keys := map[string]bool{}
	for _, s := range loop.Samples {
		op := plan.Next(s.Conn, s.Step)
		switch {
		case op.Class == ClassSweep:
			for _, p := range op.Points {
				keys[p.Key()] = true
			}
		case op.Want != "hit":
			keys[op.Key] = true
		}
	}
	return len(keys)
}

// checkCounters checks the server's counter deltas against what the
// window sent.
func checkCounters(workload string, ph *Phase) []string {
	d, l := ph.Delta, ph.Loop
	var errs []string
	want := func(name string, got, expect float64) {
		if got != expect {
			errs = append(errs, fmt.Sprintf("%s: counters say %g, the client counted %g", name, got, expect))
		}
	}
	reqs := d["conserve_requests_total"]
	want("requests", reqs, float64(l.RunRequests+l.SweepPoints))
	want("hits+misses+joined", d["conserve_cache_hits_total"]+d["conserve_cache_misses_total"]+d["conserve_joined_total"], reqs)
	want("hits", d["conserve_cache_hits_total"], float64(l.HitAnswers))
	want("misses+joined", d["conserve_cache_misses_total"]+d["conserve_joined_total"], float64(l.MissAnswers+l.SweepPoints))
	want("rejected", d["conserve_rejected_total"], 0)
	if workload != "cluster-sweep" {
		want("executions", d["conserve_executions_total"], d["conserve_cache_misses_total"])
	}
	return errs
}

// clusterOverhead sends the same tiny request (≈0.4 ms of compute)
// to the coordinator and to a single node started alongside,
// alternating, and returns the difference of the median latencies: the
// fleet's fixed per-request cost.
func clusterOverhead(ctx context.Context, env *Env, coord *HTTPTarget) (float64, error) {
	single, _, err := startSingle(ctx, env, "single", serverArgs(""))
	if err != nil {
		return 0, err
	}
	defer single.stop()
	st := NewHTTPTarget(single.front().URL, 1)
	defer st.Close()
	var c, s []float64
	for i := 0; i < 15; i++ {
		q := service.Request{Protocol: "3-majority", N: 1000, K: 10, Trials: 3, Seed: derive(env.Seed, 0x4f564844, uint64(i)) >> 1}
		op := runOp(i, ClassCold, q, "miss")
		for _, t := range []struct {
			target *HTTPTarget
			out    *[]float64
		}{{coord, &c}, {st, &s}} {
			t0 := time.Now()
			a, err := t.target.Send(ctx, 0, op)
			if err != nil {
				return 0, err
			}
			if a.Status != 200 {
				return 0, fmt.Errorf("overhead probe: status %d", a.Status)
			}
			*t.out = append(*t.out, ms(time.Since(t0)))
		}
	}
	return Median(c) - Median(s), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
