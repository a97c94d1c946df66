package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"utcq/internal/faultfs"
	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// postRaw round-trips a JSON body against a test server and returns the
// response with its body decoded into out (which may be nil).
func postRaw(t *testing.T, ts *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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

// TestShardQuarantineServesDegraded breaks every shard archive on disk
// and asserts the contract from the issue: point queries answer 503 (not
// a 500 per request retrying the broken open), scatter queries keep
// answering with a degraded flag, and /healthz + /v1/stats surface the
// quarantine.
func TestShardQuarantineServesDegraded(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt the world: every shard archive disappears (FORMAT.md §2
	// names them shard-NNNN.utcq).  The manifest is intact, so the store
	// opens lazily and only discovers the damage when a query touches a
	// shard.
	archives, err := filepath.Glob(filepath.Join(dir, "shard-*.utcq"))
	if err != nil || len(archives) == 0 {
		t.Fatalf("no shard archives found: %v, %v", archives, err)
	}
	for _, a := range archives {
		if err := os.Remove(a); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, ds.Graph, store.OpenOptions{})
	if err != nil {
		t.Fatalf("lazy open should not touch shards: %v", err)
	}
	srv := New(st, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	whereReq := client.WhereRequest{Traj: 0, T: ds.Trajectories[0].T[0], Alpha: 0.3}
	// The query that discovers the failure reports it as a server error…
	if resp := postRaw(t, ts, "/v1/where", whereReq, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first query on a broken shard: status %d, want 500", resp.StatusCode)
	}
	// …and quarantines the shard: retries fail fast with 503 and a
	// Retry-After instead of re-attempting the open on every request.
	resp := postRaw(t, ts, "/v1/where", whereReq, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 should carry Retry-After")
	}

	// Range keeps answering, flagged degraded, even though every shard
	// holding data is now quarantined or freshly failing.
	b := built.Bounds()
	var rangeResp struct {
		Trajs         []int `json:"trajs"`
		Degraded      bool  `json:"degraded"`
		ShardsSkipped int   `json:"shardsSkipped"`
	}
	rr := client.RangeRequest{Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: ds.Trajectories[0].T[0], Alpha: 0.3}
	if resp := postRaw(t, ts, "/v1/range", rr, &rangeResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded range: status %d, want 200", resp.StatusCode)
	}
	if !rangeResp.Degraded || rangeResp.ShardsSkipped == 0 {
		t.Fatalf("range should be flagged degraded with skipped shards, got %+v", rangeResp)
	}
	if len(rangeResp.Trajs) != 0 {
		t.Fatalf("every shard is broken; degraded result should be empty, got %v", rangeResp.Trajs)
	}

	var health struct {
		Status            string `json:"status"`
		QuarantinedShards int    `json:"quarantinedShards"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "degraded" || health.QuarantinedShards == 0 {
		t.Fatalf("healthz should report the quarantine: %+v", health)
	}
	var stats client.StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.QuarantinedShards == 0 || stats.ShardOpenFailures == 0 {
		t.Fatalf("stats should count quarantined shards and open failures: %+v", stats)
	}
	if stats.DegradedQueries == 0 {
		t.Fatalf("stats should count degraded range answers: %+v", stats)
	}
}

// degradeIngestFixture is an ingest-enabled server with a tight admission
// limit and a fault injector wrapped around the WAL's filesystem, so the
// tests below can fill the queue and break the log deterministically.
func degradeIngestFixture(t *testing.T, opts Options) (*httptest.Server, *faultfs.Injector, []client.RawTrajectory) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	mem := faultfs.NewMemFS()
	sopts.FS = mem
	m := mapmatch.New(g, eix, p.Match)
	var base []*traj.Uncertain
	for _, raw := range raws[:6] {
		if u, err := m.Match(raw); err == nil {
			base = append(base, u)
		}
	}
	st, err := store.Build(g, base, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("store"); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(mem)
	// The ingester is never Start()ed: nothing drains the queue, so
	// acknowledged records stay pending and the admission limit is
	// reachable with a couple of submissions.
	ing, err := ingest.New(st, eix, "store/ingest.wal", ingest.Options{
		FS:           inj,
		Match:        p.Match,
		Parallelism:  1,
		CompactEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	opts.Ingester = ing
	srv := New(st, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, inj, toJSON(raws[6:])
}

// TestIngestAdmissionBoundedQueue pins the 429 path: with the admission
// limit reached, further ingestion is shed with Retry-After and counted,
// and nothing new is acknowledged into the WAL.
func TestIngestAdmissionBoundedQueue(t *testing.T) {
	ts, _, raws := degradeIngestFixture(t, Options{MaxPending: 1})

	var ok client.IngestResponse
	if resp := postRaw(t, ts, "/v1/ingest", client.IngestRequest{Trajectories: raws[:1]}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest under the limit: status %d, want 200", resp.StatusCode)
	}
	// The queue now holds >= MaxPending acknowledged records and nothing
	// drains them: the next request must be shed, not acknowledged.
	resp := postRaw(t, ts, "/v1/ingest", client.IngestRequest{Trajectories: raws[1:2]}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
	var stats client.StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", stats.Rejected)
	}
	if stats.Ingest == nil || stats.Ingest.Acked != 1 || stats.Ingest.PendingLimit != 1 {
		t.Fatalf("ingest stats after shedding: %+v", stats.Ingest)
	}
}

// TestWALFaultTripsReadOnlyOverHTTP drives the read-only latch end to
// end: an injected WAL sync failure turns later ingestion into 503s with
// Retry-After while queries keep answering, and /healthz + /v1/stats report
// the degraded write path.
func TestWALFaultTripsReadOnlyOverHTTP(t *testing.T) {
	ts, inj, raws := degradeIngestFixture(t, Options{})

	var ok client.IngestResponse
	if resp := postRaw(t, ts, "/v1/ingest", client.IngestRequest{Trajectories: raws[:1]}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d, want 200", resp.StatusCode)
	}

	// Fail the next WAL fsync: that submission is a server error (it was
	// not acknowledged) and the write path latches read-only.  FailAt
	// resets the op counter, so the next append is write(0), sync(1).
	inj.FailAt(1, faultfs.EIO)
	if resp := postRaw(t, ts, "/v1/ingest", client.IngestRequest{Trajectories: raws[1:2]}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest over a failed sync: status %d, want 500", resp.StatusCode)
	}
	inj.Disarm()

	resp := postRaw(t, ts, "/v1/ingest", client.IngestRequest{Trajectories: raws[2:3]}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read-only ingest: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("read-only 503 should carry Retry-After")
	}

	var health struct {
		Status   string `json:"status"`
		ReadOnly bool   `json:"readOnly"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "degraded" || !health.ReadOnly {
		t.Fatalf("healthz should report read-only mode: %+v", health)
	}
	var stats client.StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Ingest == nil || !stats.Ingest.ReadOnly {
		t.Fatalf("stats should report read-only mode: %+v", stats.Ingest)
	}

	// Reads survive the broken write path.
	var whereResp struct {
		Results []client.WhereResult `json:"results"`
	}
	if resp := postRaw(t, ts, "/v1/where", client.WhereRequest{Traj: 0, T: stats.TimeMin, Alpha: 0.0}, &whereResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("query while read-only: status %d, want 200", resp.StatusCode)
	}
}

// slowBackend is a Backend whose queries on trajectory (or at time) 0
// answer at once and all others block until their context ends; it
// records whether the last query's context carried a deadline.
type slowBackend struct{ hadDeadline atomic.Bool }

func (b *slowBackend) Reader(uint64) (Reader, error) { return b, nil }

func (b *slowBackend) wait(ctx context.Context, key int64) error {
	_, ok := ctx.Deadline()
	b.hadDeadline.Store(ok)
	if key == 0 {
		return nil
	}
	<-ctx.Done()
	return ctx.Err()
}

func (b *slowBackend) Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error) {
	return []client.WhereResult{}, b.wait(ctx, int64(req.Traj))
}

func (b *slowBackend) When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error) {
	return []client.WhenResult{}, b.wait(ctx, int64(req.Traj))
}

func (b *slowBackend) Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error) {
	return client.RangeResult{Trajs: []int{}}, b.wait(ctx, req.T)
}

func (b *slowBackend) Ingest(context.Context, client.IngestRequest) (client.IngestResponse, error) {
	return client.IngestResponse{}, errIngestDisabled
}

func (b *slowBackend) Compact(context.Context) (client.CompactResponse, error) {
	return client.CompactResponse{}, nil
}

func (b *slowBackend) Stats(context.Context) client.StatsResponse { return client.StatsResponse{} }

func (b *slowBackend) Health(context.Context) client.Health { return client.Health{Status: "ok"} }

// TestQueryTimeoutAnswers504 pins the query deadline: the backend runs
// under the request's context bounded by QueryTimeout, a where, range or
// batch request that outlives it answers 504 timeout and counts once in
// timeouts, a fast request is unaffected, and a negative QueryTimeout
// sets no deadline at all.
func TestQueryTimeoutAnswers504(t *testing.T) {
	const budget = 50 * time.Millisecond
	b := &slowBackend{}
	ts := httptest.NewServer(NewHandler(b, Options{QueryTimeout: budget}).Handler())
	defer ts.Close()

	slow := []struct {
		path string
		body any
	}{
		{"/v1/where", client.WhereRequest{Traj: 1}},
		{"/v1/range", client.RangeRequest{T: 1}},
		{"/v1/batch", client.BatchRequest{Queries: []client.BatchQuery{
			{Kind: "where", Where: &client.WhereRequest{Traj: 0}},
			{Kind: "range", Range: &client.RangeRequest{T: 1}},
		}}},
	}
	for i, c := range slow {
		var env client.ErrorResponse
		start := time.Now()
		resp := postRaw(t, ts, c.path, c.body, &env)
		if resp.StatusCode != http.StatusGatewayTimeout || env.Code != client.CodeTimeout {
			t.Fatalf("%s past its deadline: status %d code %q, want 504 %q", c.path, resp.StatusCode, env.Code, client.CodeTimeout)
		}
		if el := time.Since(start); el > 20*budget {
			t.Fatalf("%s answered after %v, deadline %v", c.path, el, budget)
		}
		var stats client.StatsResponse
		getJSON(t, ts, "/v1/stats", &stats)
		if stats.Timeouts != int64(i+1) {
			t.Fatalf("after %s: timeouts = %d, want %d", c.path, stats.Timeouts, i+1)
		}
	}

	var out results[[]client.WhereResult]
	if resp := postRaw(t, ts, "/v1/where", client.WhereRequest{Traj: 0}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("fast where: status %d, want 200", resp.StatusCode)
	}
	if !b.hadDeadline.Load() {
		t.Fatal("fast where ran without the query deadline")
	}

	nb := &slowBackend{}
	nts := httptest.NewServer(NewHandler(nb, Options{QueryTimeout: -1}).Handler())
	defer nts.Close()
	if resp := postRaw(t, nts, "/v1/where", client.WhereRequest{Traj: 0}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("where without a budget: status %d, want 200", resp.StatusCode)
	}
	if nb.hadDeadline.Load() {
		t.Fatal("QueryTimeout < 0 still set a deadline")
	}
}
