package service

import (
	"bytes"
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
