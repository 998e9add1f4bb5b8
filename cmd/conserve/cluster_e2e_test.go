package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"plurality/internal/cluster"
	"plurality/internal/service"
)

// reservePorts grabs n distinct loopback addresses and releases them:
// cluster children need the whole fleet's addresses before any of them
// starts, so ephemeral binding (-addr :0) cannot work here.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestClusterKillFailoverByteIdenticalSweep is the distributed
// counterpart of TestKillRestartByteIdenticalSweep: a real 5-process
// fleet (2 coordinators, 3 workers) runs the reference sweep with every
// point sharded across the workers. The sweep streams through c2; after
// the first NDJSON line arrives, c1 and worker w3 are SIGKILLed. c2's
// forwards of c1-owned keys then fail and c2 dispatches those keys
// itself, and w3's shards move to the surviving workers. The merged
// NDJSON must be byte-identical to an uninterrupted single-process run.
func TestClusterKillFailoverByteIdenticalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary into a 5-process fleet")
	}

	// Ground truth: the same sweep, uninterrupted, in one process.
	var sr service.SweepRequest
	if err := json.Unmarshal([]byte(killSweepBody), &sr); err != nil {
		t.Fatal(err)
	}
	// The kill must take out the owner of a key still to come, or the
	// dead-owner fallback would go unexercised.
	points, err := sr.Points()
	if err != nil {
		t.Fatal(err)
	}
	owners := cluster.NewRing([]string{"c1", "c2"})
	if !slices.ContainsFunc(points[1:], func(q service.Request) bool { return owners.Owner(q.Key()) == "c1" }) {
		t.Fatal("no sweep key after the first is owned by c1")
	}
	rn := service.NewRunner(service.Options{Workers: 2})
	defer rn.Close()
	var want bytes.Buffer
	if err := rn.Sweep(context.Background(), sr, func(p service.SweepPoint) error {
		return service.EncodeJSONLine(&want, p)
	}); err != nil {
		t.Fatal(err)
	}

	ids := []string{"c1", "c2", "w1", "w2", "w3"}
	addrs := reservePorts(t, len(ids))
	var peerParts []string
	for i, id := range ids {
		peerParts = append(peerParts, id+"=http://"+addrs[i])
	}
	peersArg := strings.Join(peerParts, ",")

	children := make(map[string]*exec.Cmd, len(ids))
	bases := make(map[string]string, len(ids))
	for i, id := range ids {
		role := "worker"
		if strings.HasPrefix(id, "c") {
			role = "coordinator"
		}
		cmd, base := startChild(t,
			"-addr", addrs[i], "-workers", "2",
			"-cluster", role, "-node-id", id,
			"-peers", peersArg, "-coordinators", "c1,c2",
			"-lease-timeout", "30s",
			"-data-dir", t.TempDir())
		children[id] = cmd
		bases[id] = base
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		bases["c2"]+"/sweep", strings.NewReader(killSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	firstLine, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("first sweep line: %v", err)
	}
	if !bytes.HasPrefix(want.Bytes(), []byte(firstLine)) {
		t.Fatalf("pre-kill stream already diverged:\n got %s want prefix of %s", firstLine, want.Bytes())
	}

	// Mid-sweep, kill the other coordinator and one worker.
	killed := time.Now()
	for _, id := range []string{"c1", "w3"} {
		children[id].Process.Kill()
		children[id].Wait()
	}
	t.Log("killed coordinator c1 and worker w3 mid-sweep")

	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatalf("stream after failover: %v", err)
	}
	t.Logf("failover stall (SIGKILL to last NDJSON line): %s", time.Since(killed).Round(time.Millisecond))
	got := append([]byte(firstLine), rest...)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("fleet sweep diverged from single-process run:\n got:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// The surviving coordinator still reports itself ready and exports
	// the cluster counters.
	mresp, err := http.Get(bases["c2"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !regexp.MustCompile(`conserve_cluster_leader 1`).Match(metrics) {
		t.Fatalf("surviving coordinator does not lead:\n%s", metrics)
	}
	for _, name := range []string{"conserve_shard_requeues_total", "conserve_peer_cache_hits_total"} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Fatalf("metrics missing %s:\n%s", name, metrics)
		}
	}
}
