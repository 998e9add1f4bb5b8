package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"plurality/internal/service"
)

// FuzzClusterExecute drives arbitrary bodies through the POST
// /cluster/execute decode path, which must never panic. Every body it
// accepts names a shard inside the request's trials, 0 ≤ lo < hi ≤
// Trials, of a request that Normalize leaves unchanged.
func FuzzClusterExecute(f *testing.F) {
	for _, seed := range []string{
		`{"request":{"protocol":"3-majority","n":1000,"k":8,"seed":1,"trials":6},"lo":2,"hi":4}`,
		`{"request":{"protocol":"3-majority","n":1000,"k":8,"seed":1,"trials":6},"lo":4,"hi":2}`,
		`{"request":{"protocol":"3-majority","n":1000,"k":8,"seed":1,"trials":6},"lo":0,"hi":7}`,
		`{"request":{"protocol":"3-majority","n":1000000000,"k":100,"tier":"analytic"},"lo":0,"hi":1}`,
		`{"request":{"protocol":"3-majority","n":1000,"k":8,"trials":6},"lo":0,`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, s, err := decodeExecute(bytes.NewReader(body))
		if err != nil {
			return
		}
		if s.Lo < 0 || s.Lo >= s.Hi || s.Hi > q.Trials {
			t.Fatalf("accepted shard [%d, %d) outside %d trials", s.Lo, s.Hi, q.Trials)
		}
		if again := q.Normalize(); !reflect.DeepEqual(q, again) {
			t.Fatalf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", q, again)
		}
	})
}

// FuzzClusterRun drives arbitrary bodies through the POST /cluster/run
// decode path, which must never panic. Every body it accepts is a
// request with trial shards — it validates and is not analytic-tier —
// that Normalize leaves unchanged.
func FuzzClusterRun(f *testing.F) {
	for _, seed := range []string{
		`{"protocol":"3-majority","n":1000,"k":8,"seed":1,"trials":6}`,
		`{"protocol":"2-choices","n":1000,"k":8,"trials":0}`,
		`{"protocol":"3-majority","n":1000,"k":8,"trials":100001}`,
		`{"protocol":"3-majority","n":1000000000,"k":100,"tier":"analytic"}`,
		`{"protocol":"3-majority","n":1000,"k":8,`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeRun(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil || q.Tier == service.TierAnalytic {
			t.Fatalf("accepted a request without trial shards (tier %q): %v", q.Tier, err)
		}
		if again := q.Normalize(); !reflect.DeepEqual(q, again) {
			t.Fatalf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", q, again)
		}
	})
}
