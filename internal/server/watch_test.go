package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// newWatchFixture builds an ingest-enabled server with numRaw raws, the
// first 6 in the base store and the rest returned for live submission.
func newWatchFixture(t *testing.T, numRaw int) (*httptest.Server, *store.Store, []traj.RawTrajectory) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, numRaw, 29)
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
		BatchSize: 64,
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

// chooseWatchTime picks the timestamp covered by the most raws' time
// spans: trips start anywhere in the day, so an arbitrary instant hits
// almost none of them, while the argmax gives the watch query a result
// set that actually grows as batches are ingested.
func chooseWatchTime(raws []traj.RawTrajectory) int64 {
	best, bestN := int64(0), -1
	for _, cand := range raws {
		tq := cand.Points[len(cand.Points)/2].T
		n := 0
		for _, r := range raws {
			if r.Points[0].T <= tq && tq <= r.Points[len(r.Points)-1].T {
				n++
			}
		}
		if n > bestN {
			best, bestN = tq, n
		}
	}
	return best
}

// watchURL renders the subscription query string over the whole network
// (alpha 0 keeps every trajectory active at t eligible, so ingested
// batches visibly enter the result set).
func watchURL(base string, st *store.Store, t64 int64, extra string) string {
	b := st.Bounds()
	return fmt.Sprintf("%s/v1/watch/range?minX=%g&minY=%g&maxX=%g&maxY=%g&t=%d&alpha=0%s",
		base, b.MinX, b.MinY, b.MaxX, b.MaxY, t64, extra)
}

// getWatch performs one long-poll exchange.
func getWatch(t *testing.T, url string) WatchResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var wr WatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	return wr
}

// rawRangePost posts a range request and returns status and raw body
// bytes (for byte-identity comparisons).
func rawRangePost(t *testing.T, url string, req client.RangeRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestWatchMatchesFullRequery is the streaming headline property: a
// watcher that unions incremental /v1/watch/range updates always holds
// exactly the set a full /v1/range pinned at the update's generation
// returns — while ingestion and compaction advance the store CONCURRENTLY
// with the long-polls (run under -race in CI).  The driver paces
// mutations on watcher acks so the pinned requery never falls behind the
// one-generation retention window.
func TestWatchMatchesFullRequery(t *testing.T) {
	ts, st, raws := newWatchFixture(t, 30)
	f := &fixture{ts: ts}
	tq := chooseWatchTime(raws)
	b := st.Bounds()
	rect := client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}

	// Initial subscription: full result set.
	first := getWatch(t, watchURL(ts.URL, st, tq, ""))
	if !first.Reset {
		t.Fatalf("initial watch response not a reset: %+v", first)
	}
	have := map[int]bool{}
	for _, j := range first.Added {
		have[j] = true
	}

	acks := make(chan uint64)
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		gen, cursor := first.Gen, first.Watermark
		for {
			select {
			case <-done:
				return
			default:
			}
			wr := getWatch(t, watchURL(ts.URL, st, tq,
				fmt.Sprintf("&gen=%d&cursor=%d&timeout=1", gen, cursor)))
			if wr.Gen == gen {
				continue // heartbeat: nothing changed within the poll window
			}
			for _, j := range wr.Added {
				have[j] = true
			}
			gen, cursor = wr.Gen, wr.Watermark

			// The union must equal a full requery pinned at this exact
			// generation (the metamorphic identity).
			status, body := rawRangePost(t, fmt.Sprintf("%s/v1/range?gen=%d", ts.URL, wr.Gen),
				client.RangeRequest{Rect: rect, T: tq, Alpha: 0})
			if status != http.StatusOK {
				errs <- fmt.Errorf("pinned requery at gen %d: status %d: %s", wr.Gen, status, body)
				return
			}
			var full struct {
				Trajs []int `json:"trajs"`
			}
			if err := json.Unmarshal(body, &full); err != nil {
				errs <- err
				return
			}
			union := make([]int, 0, len(have))
			for j := range have {
				union = append(union, j)
			}
			sort.Ints(union)
			want := full.Trajs
			if want == nil {
				want = []int{}
			}
			if !reflect.DeepEqual(union, want) {
				errs <- fmt.Errorf("gen %d: watch union %v != full range %v", wr.Gen, union, want)
				return
			}
			select {
			case acks <- wr.Gen:
			case <-done:
				return
			}
		}
	}()

	waitAck := func(gen uint64) {
		t.Helper()
		for {
			select {
			case err, ok := <-errs:
				if ok && err != nil {
					t.Fatal(err)
				}
				t.Fatal("watcher exited early")
			case got := <-acks:
				if got >= gen {
					return
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("watcher never acked generation %d", gen)
			}
		}
	}

	// Interleave ingest batches and compactions, each concurrent with the
	// watcher's in-flight long-poll.
	for i := 0; i < len(raws); i += 6 {
		end := min(i+6, len(raws))
		var ack client.IngestResponse
		f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[i:end]), Flush: true}, http.StatusOK, &ack)
		waitAck(ack.Generation)
		if i%12 == 0 {
			var cr client.CompactResponse
			f.post(t, "/v1/compact", struct{}{}, http.StatusOK, &cr)
			if cr.Folded > 0 {
				waitAck(cr.Generation)
			}
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(have) <= len(first.Added) {
		t.Fatalf("watch never observed growth: %d -> %d trajectories", len(first.Added), len(have))
	}
}

// TestGenPinnedSnapshotIsolation pins ?gen=N reads: the byte-exact
// response captured at generation N is reproduced after a mutation when
// pinned to N, and the pin degrades to 410 Gone once N leaves the
// retention window (404 for generations never reached, 400 for garbage).
func TestGenPinnedSnapshotIsolation(t *testing.T) {
	ts, st, raws := newWatchFixture(t, 18)
	f := &fixture{ts: ts}
	tq := chooseWatchTime(raws)
	b := st.Bounds()
	req := client.RangeRequest{Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: tq, Alpha: 0}

	gen0 := st.Generation()
	status, before := rawRangePost(t, ts.URL+"/v1/range", req)
	if status != http.StatusOK {
		t.Fatalf("baseline range: status %d", status)
	}

	// Mutate: the live answer may change, the pinned answer must not.
	var ack client.IngestResponse
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[:6]), Flush: true}, http.StatusOK, &ack)
	if ack.Generation != gen0+1 {
		t.Fatalf("generation %d after flush, want %d", ack.Generation, gen0+1)
	}
	status, pinned := rawRangePost(t, fmt.Sprintf("%s/v1/range?gen=%d", ts.URL, gen0), req)
	if status != http.StatusOK {
		t.Fatalf("pinned range: status %d: %s", status, pinned)
	}
	if !bytes.Equal(pinned, before) {
		t.Fatalf("pinned read at gen %d not byte-identical:\n pre-mutation: %s\n pinned:       %s", gen0, before, pinned)
	}

	// Batch requests pin the same way (one snapshot for the whole batch).
	var batch struct {
		Results []client.BatchResult `json:"results"`
	}
	f.post(t, fmt.Sprintf("/v1/batch?gen=%d", gen0),
		client.BatchRequest{Queries: []client.BatchQuery{{Kind: "range", Range: &req}}}, http.StatusOK, &batch)
	var liveNow struct {
		Trajs []int `json:"trajs"`
	}
	if err := json.Unmarshal(before, &liveNow); err != nil {
		t.Fatal(err)
	}
	got := batch.Results[0].Trajs
	if got == nil {
		got = []int{}
	}
	want := liveNow.Trajs
	if want == nil {
		want = []int{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned batch range %v != captured %v", got, want)
	}

	// Second mutation retires gen0 past the retention window.
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[6:12]), Flush: true}, http.StatusOK, &ack)
	status, body := rawRangePost(t, fmt.Sprintf("%s/v1/range?gen=%d", ts.URL, gen0), req)
	if status != http.StatusGone {
		t.Fatalf("retired pin: status %d (%s), want 410", status, body)
	}
	status, _ = rawRangePost(t, ts.URL+"/v1/range?gen=99999", req)
	if status != http.StatusNotFound {
		t.Fatalf("future pin: status %d, want 404", status)
	}
	status, _ = rawRangePost(t, ts.URL+"/v1/range?gen=banana", req)
	if status != http.StatusBadRequest {
		t.Fatalf("garbage pin: status %d, want 400", status)
	}
}

// TestWatchReconnectMidStream kills an SSE subscription mid-stream and
// resumes from the last delivered {gen, cursor} over long-poll: the union
// across the torn stream equals a fresh full query — the resume-cursor
// contract the chaos job exercises.
func TestWatchReconnectMidStream(t *testing.T) {
	ts, st, raws := newWatchFixture(t, 24)
	f := &fixture{ts: ts}
	tq := chooseWatchTime(raws)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		watchURL(ts.URL, st, tq, "&stream=sse"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// readUpdate scans SSE lines until the next update event's data.
	sc := bufio.NewScanner(resp.Body)
	readUpdate := func() WatchResponse {
		t.Helper()
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue // event: lines, heartbeats, blank separators
			}
			var wr WatchResponse
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &wr); err != nil {
				t.Fatal(err)
			}
			return wr
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return WatchResponse{}
	}

	first := readUpdate()
	if !first.Reset {
		t.Fatalf("first SSE update not a reset: %+v", first)
	}
	have := map[int]bool{}
	for _, j := range first.Added {
		have[j] = true
	}

	// One mutation arrives over the stream...
	var ack client.IngestResponse
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[:6]), Flush: true}, http.StatusOK, &ack)
	second := readUpdate()
	for _, j := range second.Added {
		have[j] = true
	}
	if second.Gen != ack.Generation {
		t.Fatalf("stream update at gen %d, flush landed gen %d", second.Gen, ack.Generation)
	}

	// ...then the connection dies mid-stream, a mutation happens while the
	// client is gone, and the client resumes from its last cursor.
	cancel()
	f.post(t, "/v1/ingest", client.IngestRequest{Trajectories: toJSON(raws[6:12]), Flush: true}, http.StatusOK, &ack)
	resumed := getWatch(t, watchURL(ts.URL, st, tq,
		fmt.Sprintf("&gen=%d&cursor=%d&timeout=5", second.Gen, second.Watermark)))
	if resumed.Reset {
		t.Fatalf("resume produced a reset: %+v", resumed)
	}
	for _, j := range resumed.Added {
		have[j] = true
	}

	fresh := getWatch(t, watchURL(ts.URL, st, tq, ""))
	union := make([]int, 0, len(have))
	for j := range have {
		union = append(union, j)
	}
	sort.Ints(union)
	want := append([]int(nil), fresh.Added...)
	sort.Ints(want)
	if len(union) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(union, want) {
			t.Fatalf("resumed union %v != fresh full subscription %v", union, want)
		}
	}
}

// TestWatchBadRequests pins the 400 surface of the subscription parser.
func TestWatchBadRequests(t *testing.T) {
	ts, _, _ := newWatchFixture(t, 8)
	for _, qs := range []string{
		"",                                // everything missing
		"minX=0&minY=0&maxX=9&maxY=9",     // missing t
		"minX=9&minY=0&maxX=0&maxY=9&t=5", // inverted rect
		"minX=0&minY=0&maxX=9&maxY=9&t=5&alpha=2",      // alpha out of range
		"minX=0&minY=0&maxX=9&maxY=9&t=5&stream=smoke", // bad stream mode
		"minX=NaN&minY=0&maxX=9&maxY=9&t=5",            // non-finite rect
		"minX=0&minY=0&maxX=9&maxY=9&t=5&gen=-1",       // negative gen
	} {
		resp, err := http.Get(ts.URL + "/v1/watch/range?" + qs)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", qs, resp.StatusCode)
		}
	}
}
