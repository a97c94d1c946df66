package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// FuzzRequestDecode sends arbitrary bodies to every POST route of a node
// without an ingester.  Every non-2xx answer must be a v1 envelope with
// a code, and no 4xx may carry code internal: APIError.Temporary treats
// internal as transient, so a client would retry its own mistake.
func FuzzRequestDecode(f *testing.F) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 12, 12
	ds, err := gen.Build(p, 8, 5)
	if err != nil {
		f.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	st, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		f.Fatal(err)
	}
	h := New(st, Options{}).Handler()

	big, err := json.Marshal(client.BatchRequest{Queries: make([]client.BatchQuery, 300)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"not json",
		`{"bogus":1}`,
		`{"traj":"x"}`,
		`{"rect":1}`,
		`{"trajectories":[]}`,
		string(big),
		`{"traj":1000000,"t":1,"alpha":0.1}`,
		`{"traj":0,"t":1,"alpha":0.1,"loc":{"edge":-1,"ndist":0.5}}`,
		`{"queries":[{"kind":"where","where":{"traj":0,"t":1}},{"kind":"bogus"}]}`,
		`{"trajectories":[{"points":[{"x":0,"y":0,"t":0},{"x":1,"y":1,"t":30}]}],"flush":true}`,
	} {
		f.Add(seed)
	}
	routes := []string{"/v1/where", "/v1/when", "/v1/range", "/v1/batch", "/v1/ingest", "/v1/compact"}
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range routes {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
			if w.Code/100 == 2 {
				continue
			}
			var env client.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code == "" || env.Error == "" {
				t.Fatalf("POST %s %q: status %d with body %q, want a v1 envelope", route, body, w.Code, w.Body.String())
			}
			if w.Code/100 == 4 && env.Code == client.CodeInternal {
				t.Fatalf("POST %s %q: status %d carries code %s", route, body, w.Code, env.Code)
			}
		}
	})
}
