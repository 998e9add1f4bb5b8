package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"plurality/internal/service"
)

// HTTPDoer is the client-side HTTP surface the node needs; *http.Client
// satisfies it, tests may substitute an in-process doer.
type HTTPDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

func defaultHTTPClient() HTTPDoer {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}

// maxClusterBody bounds intra-cluster request bodies. Shard results
// carry full trial arrays, so this is far above the client-facing 1MB.
const maxClusterBody = 64 << 20

// call sends one intra-cluster request to peer, bounded by the lease
// timeout, and returns the body of a 2xx answer; any other status is an
// error.
func (n *Node) call(ctx context.Context, method, peer, path string, body []byte) ([]byte, error) {
	addr, ok := n.cfg.Peers[peer]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	ctx, cancel := context.WithTimeout(ctx, n.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("cluster: %s %s %s: %s: %s", peer, method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxClusterBody))
}

// roundTrip POSTs in as JSON to peer's path and decodes the answer into
// out.
func (n *Node) roundTrip(ctx context.Context, peer, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	if body, err = n.call(ctx, http.MethodPost, peer, path, body); err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// executeRequest is the worker shard-execution RPC body.
type executeRequest struct {
	Request service.Request `json:"request"`
	Lo      int             `json:"lo"`
	Hi      int             `json:"hi"`
}

// decodeExecute parses a /cluster/execute body and checks it the way
// service.ExecuteShard will: the request is shardable and 0 ≤ lo < hi ≤
// trials.
func decodeExecute(r io.Reader) (service.Request, ShardRange, error) {
	var req executeRequest
	if err := json.NewDecoder(io.LimitReader(r, maxClusterBody)).Decode(&req); err != nil {
		return service.Request{}, ShardRange{}, err
	}
	q, err := shardable(req.Request)
	if err != nil {
		return service.Request{}, ShardRange{}, err
	}
	if req.Lo < 0 || req.Hi > q.Trials || req.Lo >= req.Hi {
		return service.Request{}, ShardRange{}, fmt.Errorf("cluster: shard [%d, %d) out of range for %d trials", req.Lo, req.Hi, q.Trials)
	}
	return q, ShardRange{Lo: req.Lo, Hi: req.Hi}, nil
}

// decodeRun parses a /cluster/run body: a shardable request.
func decodeRun(r io.Reader) (service.Request, error) {
	var req service.Request
	if err := json.NewDecoder(io.LimitReader(r, maxClusterBody)).Decode(&req); err != nil {
		return service.Request{}, err
	}
	return shardable(req)
}

// shardable normalizes req and checks that it validates and is not
// analytic-tier, so it has trial shards.
func shardable(req service.Request) (service.Request, error) {
	q := req.Normalize()
	if err := q.Validate(); err != nil {
		return service.Request{}, err
	}
	if q.Tier == service.TierAnalytic {
		return service.Request{}, fmt.Errorf("cluster: analytic-tier requests have no trial shards")
	}
	return q, nil
}

// executeOn runs one shard synchronously on worker.
func (n *Node) executeOn(ctx context.Context, worker string, q service.Request, s ShardRange) (*service.ShardResult, error) {
	var out service.ShardResult
	if err := n.roundTrip(ctx, worker, "/cluster/execute", executeRequest{Request: q, Lo: s.Lo, Hi: s.Hi}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (n *Node) cacheGetRemote(ctx context.Context, owner, key string) ([]byte, bool) {
	body, err := n.call(ctx, http.MethodGet, owner, "/cluster/cache/"+key, nil)
	return body, err == nil
}

func (n *Node) cachePutRemote(ctx context.Context, owner, key string, body []byte) {
	n.call(ctx, http.MethodPut, owner, "/cluster/cache/"+key, body)
}

// Handler returns the node's /cluster/* HTTP surface, mounted into the
// conserve server via service.Extra.Routes:
//
//	POST /cluster/run         dispatch a forwarded job (coordinators)
//	POST /cluster/execute     run one shard here (workers)
//	GET  /cluster/cache/{key} read this node's peer-cache slice
//	PUT  /cluster/cache/{key} write this node's peer-cache slice
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/run", func(w http.ResponseWriter, r *http.Request) {
		if n.cfg.Role != RoleCoordinator || len(n.workers.Peers()) == 0 {
			http.Error(w, "cluster: not a coordinator with workers", http.StatusNotFound)
			return
		}
		q, err := decodeRun(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := n.own(r.Context(), q, q.Key())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /cluster/execute", func(w http.ResponseWriter, r *http.Request) {
		q, s, err := decodeExecute(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := n.ExecuteShardLocal(r.Context(), q, s.Lo, s.Hi)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("GET /cluster/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		body, ok := n.cacheGetLocal(r.PathValue("key"))
		if !ok {
			http.Error(w, "not cached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("PUT /cluster/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxClusterBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.cacheSetLocal(r.PathValue("key"), body)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
