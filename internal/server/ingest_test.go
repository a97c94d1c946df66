package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// newIngestFixture builds a store over the first raws and a server with an
// attached ingester, returning the remaining raws for submission.
func newIngestFixture(t *testing.T) (*httptest.Server, *store.Store, []traj.RawTrajectory) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 14, 19)
	if err != nil {
		t.Fatal(err)
	}
	m := mapmatch.New(g, eix, p.Match)
	var base []*traj.Uncertain
	for _, raw := range raws[:6] {
		if u, err := m.Match(raw); err == nil {
			base = append(base, u)
		}
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	st, err := store.Build(g, base, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := ingest.New(st, eix, filepath.Join(t.TempDir(), "ingest.wal"), ingest.Options{
		BatchSize: 4,
		Match:     p.Match,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	srv := New(st, Options{Ingester: ing})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st, raws[6:]
}

// get fetches a JSON endpoint into out.
func (f *fixture) get(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func toJSON(raws []traj.RawTrajectory) []client.RawTrajectory {
	out := make([]client.RawTrajectory, len(raws))
	for i, raw := range raws {
		pts := make([]client.RawPoint, len(raw.Points))
		for k, p := range raw.Points {
			pts[k] = client.RawPoint{X: p.X, Y: p.Y, T: p.T}
		}
		out[i] = client.RawTrajectory{Points: pts}
	}
	return out
}

// TestIngestEndpoint walks the live write path over HTTP: acknowledge,
// flush, observe the new generation and the grown trajectory count, then
// compact and observe the delta shards fold.
func TestIngestEndpoint(t *testing.T) {
	ts, st, raws := newIngestFixture(t)
	f := &fixture{ts: ts}
	before := st.NumTrajectories()
	gen0 := st.Generation()

	// Acknowledge without flush: durable but not yet queryable.
	var ack client.IngestResponse
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[:3])}, http.StatusOK, &ack)
	if ack.Accepted != 3 || ack.FirstSeq != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.Pending == 0 {
		t.Fatalf("unflushed ingest reports no pending records: %+v", ack)
	}
	if st.NumTrajectories() != before {
		t.Fatal("unflushed ingest already mutated the store")
	}

	// Flush: the batch becomes queryable and the generation advances.
	var ack2 client.IngestResponse
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[3:]), Flush: true}, http.StatusOK, &ack2)
	if ack2.Pending != 0 {
		t.Fatalf("flushed ingest left %d pending", ack2.Pending)
	}
	if ack2.Generation <= gen0 {
		t.Fatalf("generation %d not past %d after flush", ack2.Generation, gen0)
	}
	grown := st.NumTrajectories()
	if grown <= before {
		t.Fatalf("store did not grow: %d -> %d", before, grown)
	}

	// The ingested trajectories answer queries end to end.
	lo, hi := st.TimeSpan()
	var wr struct {
		Results []client.WhereResult `json:"results"`
	}
	f.post(t, "/v1/where", client.WhereRequest{Traj: grown - 1, T: (lo + hi) / 2, Alpha: 0}, http.StatusOK, &wr)

	// Stats reflect ingestion.
	var sr client.StatsResponse
	f.get(t, "/v1/stats", &sr)
	if sr.Ingest == nil {
		t.Fatal("stats missing ingest section")
	}
	if sr.Ingest.Acked != uint64(len(raws)) || sr.Ingest.Applied != uint64(len(raws)) {
		t.Fatalf("ingest stats = %+v", sr.Ingest)
	}
	if sr.Generation != st.Generation() || sr.DeltaShards == 0 {
		t.Fatalf("stats = gen %d deltas %d", sr.Generation, sr.DeltaShards)
	}

	// Compaction folds every delta shard.
	var cr client.CompactResponse
	f.post(t, "/v1/compact", struct{}{}, http.StatusOK, &cr)
	if cr.Folded == 0 {
		t.Fatal("compaction folded nothing")
	}
	f.get(t, "/v1/stats", &sr)
	if sr.DeltaShards != 0 || sr.Tombstones == 0 {
		t.Fatalf("after compact: deltas %d tombstones %d", sr.DeltaShards, sr.Tombstones)
	}

	// Bad submissions are client errors — and atomic: a batch with one
	// invalid trajectory acknowledges nothing, even when other members
	// are valid, so a client retry cannot duplicate records.
	ackedBefore := sr.Ingest.Acked
	var errResp client.ErrorResponse
	f.post(t, "/v1/ingest", client.IngestRequest{}, http.StatusBadRequest, &errResp)
	one := client.IngestRequest{Trajectories: []client.RawTrajectory{{Points: []client.RawPoint{{X: 1, Y: 2, T: 3}}}}}
	f.post(t, "/v1/ingest", one, http.StatusBadRequest, &errResp)
	mixed := client.IngestRequest{Trajectories: append(toJSON(raws[:1]), client.RawTrajectory{Points: []client.RawPoint{
		{X: 1, Y: 2, T: 30}, {X: 2, Y: 3, T: 30}, // non-increasing timestamps
	}})}
	f.post(t, "/v1/ingest", mixed, http.StatusBadRequest, &errResp)
	f.get(t, "/v1/stats", &sr)
	if sr.Ingest.Acked != ackedBefore {
		t.Fatalf("rejected batches acknowledged records: %d -> %d", ackedBefore, sr.Ingest.Acked)
	}
}

// TestIngestDisabled checks the read-only server rejects writes with 503
// but still compacts (no-op on a store without deltas).
func TestIngestDisabled(t *testing.T) {
	f := newFixture(t)
	var errResp client.ErrorResponse
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON([]traj.RawTrajectory{
		{Points: []traj.RawPoint{{X: 0, Y: 0, T: 1}, {X: 1, Y: 1, T: 2}}},
	})}, http.StatusServiceUnavailable, &errResp)

	var cr client.CompactResponse
	f.post(t, "/v1/compact", struct{}{}, http.StatusOK, &cr)
	if cr.Folded != 0 {
		t.Fatalf("read-only store folded %d shards", cr.Folded)
	}
}
