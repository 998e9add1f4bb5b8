package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzRunRequest drives arbitrary bodies through the POST /run decode
// path — decodeJSON, Normalize, Validate — which must never panic. For
// every request that validates, Normalize is idempotent and the cache
// key is stable across a second Normalize.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"protocol":"3-majority","n":100000,"k":100,"seed":1}`,
		`{"protocol":" 2-Choices ","n":1000,"k":8,"trials":4,"max_rounds":50}`,
		`{"protocol":"voter","counts":[3,2,1]}`,
		`{"protocol":"3-majority","n":1000,"k":8,"init":"zipf","init_param":1.2}`,
		`{"protocol":"3-majority","n":10000,"k":8,"adversary":"hinder","adversary_f":5}`,
		`{"protocol":"3-majority","n":2000,"k":8,"mode":"async","max_ticks":100000}`,
		`{"protocol":"2-choices","n":1024,"k":4,"mode":"graph","topology":"torus"}`,
		`{"protocol":"3-majority","n":500,"k":4,"mode":"gossip","loss_prob":0.1,"crashed":[1,2]}`,
		`{"protocol":"3-majority","n":100000,"k":100,"trace":{}}`,
		`{"protocol":"3-majority","n":100000,"k":100,"stop":{"gamma_at_least":0.5}}`,
		`{"protocol":"3-majority","n":1000000000,"k":100,"tier":"analytic"}`,
		`{"protocol":"3-majority","n":1000000000000,"k":100}`,
		`{}`,
		`[]`,
		`{"n":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := decodeJSON(httptest.NewRequest("POST", "/run", bytes.NewReader(body)), &req); err != nil {
			return
		}
		q := req.Normalize()
		if q.Validate() != nil {
			return
		}
		again := q.Normalize()
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", q, again)
		}
		if q.Key() != again.Key() {
			t.Fatalf("Key changed across a second Normalize: %s vs %s", q.Key(), again.Key())
		}
	})
}

// FuzzMergeShards decodes arbitrary JSON as a worker's shard results
// and merges them: MergeShards must never panic, and every merge it
// accepts labels its trials 0..Trials-1 in order.
func FuzzMergeShards(f *testing.F) {
	for _, seed := range []string{
		`[{"lo":0,"hi":1,"trials":[{"trial":0}]},{"lo":1,"hi":2,"trials":[{"trial":1}]}]`,
		`[{"lo":0,"hi":2,"trials":[{"trial":0},{"trial":1}]}]`,
		`[null,{"lo":0,"hi":2,"trials":[{"trial":0},{"trial":1}]}]`,
		`[{"lo":0,"hi":2,"trials":[{"trial":7},{"trial":7}]}]`,
		`[{"lo":1,"hi":2,"trials":[{"trial":1}]},{"lo":0,"hi":1,"trials":[{"trial":0}]}]`,
		`[{"lo":0,"hi":1,"trials":[{"trial":0}]},{"lo":0,"hi":2,"trials":[{"trial":0},{"trial":1}]}]`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	q := testRequest(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		var shards []*ShardResult
		if json.Unmarshal(data, &shards) != nil {
			return
		}
		resp, err := MergeShards(q, shards)
		if err != nil {
			return
		}
		if len(resp.Trials) != q.Trials {
			t.Fatalf("merged %d trials, want %d", len(resp.Trials), q.Trials)
		}
		for i, tr := range resp.Trials {
			if tr.Trial != i {
				t.Fatalf("merged trial %d is labelled %d", i, tr.Trial)
			}
		}
	})
}
