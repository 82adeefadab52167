package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"insitubits/internal/index"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
)

// FuzzServeRequest posts arbitrary bodies to /v1/query over the
// two-variable test catalog. No body may get a server error (status ≥ 500)
// or panic the handler, and every 200 answer carries the digest that
// in-process execution of the decoded request gives: serving adds
// transport, admission and caching, never a different result.
func FuzzServeRequest(f *testing.F) {
	for _, tc := range badRequests {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, req := range []*QueryRequest{
		{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5},
		{Op: "quantile", Var: "pres", ValueLo: 1, ValueHi: 5, Q: 0.5, SpatialLo: 100, SpatialHi: 9000},
		{Op: "correlation", Var: "temp", ValueLo: 1, ValueHi: 5, VarB: "pres", BValueLo: 2, BValueHi: 7},
		{Op: "explain", Var: "temp", ExplainOp: "bits", ValueLo: 1, ValueHi: 5},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("{not json"))

	s := New(Config{})
	if err := s.LoadFiles(writeTestIndexes(f)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	xs := map[string]*index.Index{"temp": buildTestIndex(f, 0), "pres": buildTestIndex(f, 1777)}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if n := s.panics.Load(); n != 0 {
			t.Fatalf("body %q: %d handler panics", body, n)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 answer does not decode: %v", body, err)
		}
		// Decode as the handler does: the first JSON value of the body.
		var wire QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
			t.Fatalf("body %q: answered 200 but does not decode: %v", body, err)
		}
		req, explain, err := wire.request()
		x := xs[wire.Var]
		if err != nil || x == nil {
			t.Fatalf("body %q: answered 200 for op %q, var %q: %v", body, wire.Op, wire.Var, err)
		}
		var xb *index.Index
		if req.Op == query.OpCorrelation {
			xb = xs[wire.VarB]
		}
		var want QueryResponse
		if explain {
			prof, err := query.ExplainRequest(req, x, xb)
			if err != nil {
				t.Fatalf("body %q: served an explain in-process refuses: %v", body, err)
			}
			want.Digest = qlog.DigestString(prof.Render())
		} else {
			ans, err := query.Run(context.Background(), req, x, xb)
			if err != nil {
				t.Fatalf("body %q: served a request in-process refuses: %v", body, err)
			}
			want.SetAnswer(&ans)
		}
		if resp.Digest != want.Digest {
			t.Fatalf("body %q: served digest %s, in-process %s", body, resp.Digest, want.Digest)
		}
	})
}
