package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// benchServer is built once and reused: a 4-shard store behind the HTTP
// handler, exercised through httptest's in-process round trip.
var benchSrv *httptest.Server
var benchDS *gen.Dataset

func benchServer(b *testing.B) (*httptest.Server, *gen.Dataset) {
	if benchSrv != nil {
		return benchSrv, benchDS
	}
	b.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 120, 9)
	if err != nil {
		b.Fatal(err)
	}
	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = 4
	opts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	st, err := store.Build(ds.Graph, ds.Trajectories, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchSrv = httptest.NewServer(New(st, Options{}).Handler())
	benchDS = ds
	return benchSrv, benchDS
}

func benchPost(b *testing.B, url string, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d", url, resp.StatusCode)
	}
}

// BenchmarkServerWhere measures one where query through the full HTTP
// stack (encode, route, shard lookup, engine, response).
func BenchmarkServerWhere(b *testing.B) {
	ts, ds := benchServer(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(ds.Trajectories))
		T := ds.Trajectories[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		benchPost(b, ts.URL+"/v1/where", client.WhereRequest{Traj: j, T: tq, Alpha: 0.2})
	}
}

// BenchmarkServerBatch16 measures a 16-query batch per request: the
// amortized per-query cost of the batched endpoint.
func BenchmarkServerBatch16(b *testing.B) {
	ts, ds := benchServer(b)
	rng := rand.New(rand.NewSource(2))
	bounds := ds.Graph.Bounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req client.BatchRequest
		for k := 0; k < 16; k++ {
			j := rng.Intn(len(ds.Trajectories))
			T := ds.Trajectories[j].T
			tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
			if k%4 == 3 {
				req.Queries = append(req.Queries, client.BatchQuery{Kind: "range", Range: &client.RangeRequest{
					Rect: client.Rect{MinX: bounds.MinX, MinY: bounds.MinY,
						MaxX: bounds.MinX + 0.3*(bounds.MaxX-bounds.MinX),
						MaxY: bounds.MinY + 0.3*(bounds.MaxY-bounds.MinY)},
					T: tq, Alpha: 0.2,
				}})
			} else {
				req.Queries = append(req.Queries, client.BatchQuery{Kind: "where",
					Where: &client.WhereRequest{Traj: j, T: tq, Alpha: 0.2}})
			}
		}
		benchPost(b, ts.URL+"/v1/batch", req)
	}
}
