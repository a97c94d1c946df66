package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/query"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// fixture builds a small store, its reference single-archive engine, and a
// test server over the store.
type fixture struct {
	ds  *gen.Dataset
	eng *query.Engine
	st  *store.Store
	ts  *httptest.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	iopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	ix, err := stiu.Build(a, iopts)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 3
	sopts.Index = iopts
	st, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{ds: ds, eng: query.NewEngine(a, ix), st: st, ts: ts}
}

// post round-trips a JSON request and decodes the response into out,
// requiring status code want.
func (f *fixture) post(t *testing.T, path string, body any, want int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func (f *fixture) midTime(j int) int64 {
	T := f.ds.Trajectories[j].T
	return (T[0] + T[len(T)-1]) / 2
}

func TestWhereEndpoint(t *testing.T) {
	f := newFixture(t)
	j, tq := 0, f.midTime(0)
	want, err := f.eng.Where(j, tq, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Results []client.WhereResult `json:"results"`
	}
	f.post(t, "/v1/where", client.WhereRequest{Traj: j, T: tq, Alpha: 0.1}, http.StatusOK, &resp)
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Inst != want[i].Inst || r.P != want[i].P ||
			r.Edge != int(want[i].Loc.Edge) || r.NDist != want[i].Loc.NDist {
			t.Fatalf("result %d = %+v, want %+v", i, r, want[i])
		}
	}

	// Out-of-range trajectory id is a client error.
	f.post(t, "/v1/where", client.WhereRequest{Traj: 10_000, T: tq}, http.StatusBadRequest, nil)
}

// TestWhenRejectsBadEdge checks that an out-of-range edge id is a 400,
// not a panic or a 500.
func TestWhenRejectsBadEdge(t *testing.T) {
	f := newFixture(t)
	f.post(t, "/v1/when",
		client.WhenRequest{Traj: 0, Loc: client.Position{Edge: 1 << 30, NDist: 1}, Alpha: 0.1},
		http.StatusBadRequest, nil)
	f.post(t, "/v1/when",
		client.WhenRequest{Traj: 0, Loc: client.Position{Edge: -1, NDist: 1}, Alpha: 0.1},
		http.StatusBadRequest, nil)
}

// TestShardOpenFailureIs500 checks that a server-side fault (a missing
// shard archive under a lazily opened store) surfaces as 500, unlike the
// 400s client mistakes get.
func TestShardOpenFailureIs500(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	if err := f.st.Save(dir); err != nil {
		t.Fatal(err)
	}
	o, err := store.Open(dir, f.ds.Graph, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victim := o.ShardOf(0)
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("shard-%04d.utcq", victim))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(o, Options{}).Handler())
	defer ts.Close()
	b, _ := json.Marshal(client.WhereRequest{Traj: 0, T: f.midTime(0), Alpha: 0.1})
	resp, err := http.Post(ts.URL+"/v1/where", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing shard returned status %d, want 500", resp.StatusCode)
	}
}

func TestWhenEndpoint(t *testing.T) {
	f := newFixture(t)
	j, tq := 1, f.midTime(1)
	locs, err := f.eng.Where(j, tq, 0)
	if err != nil || len(locs) == 0 {
		t.Fatalf("need a visited location: %v (%d results)", err, len(locs))
	}
	loc := locs[0].Loc
	want, err := f.eng.When(j, loc, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Results []client.WhenResult `json:"results"`
	}
	f.post(t, "/v1/when",
		client.WhenRequest{Traj: j, Loc: client.Position{Edge: int(loc.Edge), NDist: loc.NDist}, Alpha: 0.1},
		http.StatusOK, &resp)
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Inst != want[i].Inst || r.P != want[i].P || r.T != want[i].T {
			t.Fatalf("result %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestRangeEndpoint(t *testing.T) {
	f := newFixture(t)
	b := f.ds.Graph.Bounds()
	tq := f.midTime(0)
	want, err := f.eng.Range(b, tq, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Trajs []int `json:"trajs"`
	}
	f.post(t, "/v1/range",
		client.RangeRequest{Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: tq, Alpha: 0.1},
		http.StatusOK, &resp)
	if len(resp.Trajs) != len(want) {
		t.Fatalf("got %v, want %v", resp.Trajs, want)
	}
	for i := range want {
		if resp.Trajs[i] != want[i] {
			t.Fatalf("got %v, want %v", resp.Trajs, want)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	f := newFixture(t)
	b := f.ds.Graph.Bounds()
	tq := f.midTime(0)
	req := client.BatchRequest{Queries: []client.BatchQuery{
		{Kind: "where", Where: &client.WhereRequest{Traj: 0, T: tq, Alpha: 0.1}},
		{Kind: "range", Range: &client.RangeRequest{Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: tq}},
		{Kind: "where", Where: &client.WhereRequest{Traj: 99_999, T: tq}}, // in-band error
		{Kind: "bogus"}, // malformed entry
	}}
	var resp struct {
		Results []client.BatchResult `json:"results"`
	}
	f.post(t, "/v1/batch", req, http.StatusOK, &resp)
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Where == nil {
		t.Fatalf("query 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error != "" || resp.Results[1].Trajs == nil {
		t.Fatalf("query 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Error == "" || resp.Results[3].Error == "" {
		t.Fatalf("bad queries did not error: %+v", resp.Results[2:])
	}

	// Batches above the limit are rejected whole.
	big := client.BatchRequest{Queries: make([]client.BatchQuery, 9)}
	f.post(t, "/v1/batch", big, http.StatusRequestEntityTooLarge, nil)
}

func TestHealthzEndpoint(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := newFixture(t)
	// Issue one query so counters move.
	f.post(t, "/v1/where", client.WhereRequest{Traj: 0, T: f.midTime(0), Alpha: 0.1}, http.StatusOK, nil)

	resp, err := http.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr client.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Shards != 3 || sr.Trajectories != len(f.ds.Trajectories) {
		t.Fatalf("stats %+v", sr)
	}
	if sr.Requests < 1 {
		t.Fatalf("requests = %d, want >= 1", sr.Requests)
	}
	if sr.Bounds.MaxX <= sr.Bounds.MinX || sr.Bounds.MaxY <= sr.Bounds.MinY {
		t.Fatalf("degenerate bounds %+v", sr.Bounds)
	}
	if sr.TimeMin <= 0 || sr.TimeMax < sr.TimeMin {
		t.Fatalf("time span (%d, %d)", sr.TimeMin, sr.TimeMax)
	}
}

// TestStatsAliasRetired pins the removal of the bare /stats alias: only
// the versioned /v1/stats path is served.
func TestStatsAliasRetired(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", resp.StatusCode)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Post(f.ts.URL+"/v1/where", "application/json",
		bytes.NewReader([]byte(`{"traj":0,"t":1,"alfa":0.2}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd field got status %d, want 400", resp.StatusCode)
	}
}

// TestGracefulShutdown serves on a real listener, issues a request, then
// shuts down and verifies the listener closed.
func TestGracefulShutdown(t *testing.T) {
	f := newFixture(t)
	srv := New(f.st, Options{})
	errc := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { errc <- srv.Serve(l) }()

	url := fmt.Sprintf("http://%s/healthz", l.Addr())
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
