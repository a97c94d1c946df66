package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"utcq/pkg/client"
)

// stubNode is a scriptable fake member: just enough of the /v1 surface
// (stats, ingest, range) for the router to Sync against and route to,
// with the failure modes a real-server fixture cannot produce on
// demand — a connection killed after the slice durably applied, a
// flush failure after acknowledgement, a backlog rejection.
type stubNode struct {
	ts *httptest.Server

	mu      sync.Mutex
	trajs   int    // post-fold trajectory count, reported everywhere
	pending int    // acked-but-unfolded records
	mode    string // "", "abort", "reject", "flusherr", "backlog"
	ranges  []int  // local ids /v1/range answers
}

func newStubNode(t *testing.T, trajs int) *stubNode {
	t.Helper()
	s := &stubNode{trajs: trajs}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		resp := client.StatsResponse{
			Trajectories: s.trajs,
			Bounds:       client.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0},
			DataBounds:   client.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0},
			Ingest:       &client.IngestStats{Pending: uint64(s.pending)},
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req client.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		switch s.mode {
		case "backlog":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(client.ErrorResponse{Code: client.CodeBacklog, Error: "backlog", RetryAfter: 1})
		case "reject":
			// Connection dies without the slice applying anywhere.
			panic(http.ErrAbortHandler)
		case "abort":
			// The slice IS durably applied, then the response is lost —
			// the ambiguous failure the router must not guess about.
			s.trajs += len(req.Trajectories)
			panic(http.ErrAbortHandler)
		case "flusherr":
			// Durably acked, fold deferred: the single-node 202 contract.
			s.pending += len(req.Trajectories)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(client.IngestResponse{
				Accepted: len(req.Trajectories), Pending: uint64(s.pending), FlushError: "fold: disk full"})
		default:
			s.trajs += len(req.Trajectories)
			json.NewEncoder(w).Encode(client.IngestResponse{
				Accepted: len(req.Trajectories), Trajectories: s.trajs})
		}
	})
	mux.HandleFunc("POST /v1/range", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ids := append([]int(nil), s.ranges...)
		s.mu.Unlock()
		if ids == nil {
			ids = []int{}
		}
		json.NewEncoder(w).Encode(client.RangeResult{Trajs: ids})
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubNode) setMode(mode string) {
	s.mu.Lock()
	s.mode = mode
	s.mu.Unlock()
}

func (s *stubNode) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trajs
}

// stubCluster wires n stub members behind a synced router.  Each stub
// starts with exactly the trajectory count the placement assigns it for
// gid 0..seed-1, so Sync's count verification passes.
func stubCluster(t *testing.T, n, seed int) (*Router, *client.Client, []*stubNode, *Placement) {
	t.Helper()
	place := NewPlacement(NodeNames(n), DefaultPartitions, DefaultVNodes)
	counts := make([]int, n)
	for gid := 0; gid < seed; gid++ {
		counts[place.Owner(gid)]++
	}
	var members []Member
	stubs := make([]*stubNode, n)
	for i := 0; i < n; i++ {
		stubs[i] = newStubNode(t, counts[i])
		members = append(members, Member{Name: NodeNames(n)[i], URL: stubs[i].ts.URL})
	}
	rt := NewRouter(members, RouterOptions{})
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	// RetryAttempts 1: the tests drive retries explicitly.
	return rt, client.New(rts.URL, client.Options{RetryAttempts: 1}), stubs, place
}

// splitBatch builds a batch of k records starting at gid base and
// returns the per-member record counts the placement implies.
func splitBatch(place *Placement, n, base, k int) ([]client.RawTrajectory, []int) {
	batch := make([]client.RawTrajectory, k)
	per := make([]int, n)
	for i := range batch {
		batch[i] = client.RawTrajectory{Points: []client.RawPoint{
			{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 30}}}
		per[place.Owner(base+i)]++
	}
	return batch, per
}

// batchSizeCovering returns a batch size k <= 64 such that every member
// owns at least one of gids base..base+k-1.
func batchSizeCovering(t *testing.T, place *Placement, n, base int) int {
	t.Helper()
	seen := make([]bool, n)
	covered := 0
	for k := 1; k <= 64; k++ {
		if o := place.Owner(base + k - 1); !seen[o] {
			seen[o] = true
			covered++
		}
		if covered == n {
			return k
		}
	}
	t.Fatal("placement does not cover every member within 64 gids")
	return 0
}

func nodeResult(t *testing.T, resp client.IngestResponse, name string) client.NodeIngestResult {
	t.Helper()
	for _, nr := range resp.Nodes {
		if nr.Name == name {
			return nr
		}
	}
	t.Fatalf("no node entry for %s in %+v", name, resp.Nodes)
	return client.NodeIngestResult{}
}

// TestRoutedIngestAmbiguousFailureDesyncs pins the lost-ack case: the
// member durably applies its slice but the response never arrives.  The
// router must not assume "not applied" — it latches the member desynced
// so no later ingest maps past the unknown offset, and the reconcile
// must NOT clear the latch (the member's count stays ahead of the maps).
func TestRoutedIngestAmbiguousFailureDesyncs(t *testing.T) {
	ctx := context.Background()
	rt, rc, stubs, place := stubCluster(t, 2, 0)
	k := batchSizeCovering(t, place, 2, 0)
	batch, per := splitBatch(place, 2, 0, k)

	stubs[1].setMode("abort")
	resp, err := rc.Ingest(ctx, batch, true)
	if err != nil {
		t.Fatalf("ingest with one ambiguous member: %v (want partial success)", err)
	}
	if resp.Accepted != per[0] {
		t.Fatalf("accepted %d, want only node-0's %d", resp.Accepted, per[0])
	}
	nr := nodeResult(t, resp, NodeNames(2)[1])
	if nr.Code != client.CodeNodeQuarantined {
		t.Fatalf("ambiguous slice reported code %q, want %q", nr.Code, client.CodeNodeQuarantined)
	}

	// The member applied its slice even though the router never saw the
	// ack; it must now be latched desynced, and healing the transport
	// must not unlatch it.
	stubs[1].setMode("")
	rt.members[1].heal() // transport quarantine is not the latch under test
	rt.RefreshStats(ctx) // reconcile runs — and must see the count ahead
	if rt.members[1].desynced() == "" {
		t.Fatal("member applied unmapped records but reconcile cleared the desync latch")
	}

	// A follow-up batch must not be mapped onto the member: its numbering
	// is ahead of the maps, so a commit would translate every later gid
	// to a different trajectory's data.  (The first batch committed k
	// gids — node-0's mapped, node-1's burned — so the new batch starts
	// at base k and needs its own placement-covering size.)
	k2 := batchSizeCovering(t, place, 2, k)
	batch2, _ := splitBatch(place, 2, k, k2)
	resp2, err := rc.Ingest(ctx, batch2, true)
	if err != nil {
		t.Fatalf("ingest after desync: %v", err)
	}
	nr2 := nodeResult(t, resp2, NodeNames(2)[1])
	if nr2.Code != client.CodeNodeDesynced {
		t.Fatalf("slice to desynced member reported code %q, want %q", nr2.Code, client.CodeNodeDesynced)
	}
	if !strings.Contains(nr2.Error, "resubmit") {
		t.Fatalf("desync error should warn about resubmission, got %q", nr2.Error)
	}

	st, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var row client.NodeStats
	for _, ns := range st.Cluster.Nodes {
		if ns.Name == NodeNames(2)[1] {
			row = ns
		}
	}
	if !row.Desynced {
		t.Fatalf("stats row for the desynced member: %+v", row)
	}
	h, err := rc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q with a desynced member, want degraded", h.Status)
	}
}

// TestRoutedIngestAmbiguousFailureReconciles pins the benign half of
// the same ambiguity: the connection died and the member truly did not
// apply the slice.  The background reconcile proves it (count equals
// the mapped ids exactly) and clears the latch, so ingest resumes with
// no operator involved.
func TestRoutedIngestAmbiguousFailureReconciles(t *testing.T) {
	ctx := context.Background()
	rt, rc, stubs, place := stubCluster(t, 2, 0)
	k := batchSizeCovering(t, place, 2, 0)
	batch, _ := splitBatch(place, 2, 0, k)

	stubs[1].setMode("reject")
	if _, err := rc.Ingest(ctx, batch, true); err != nil {
		t.Fatalf("ingest with one rejecting member: %v", err)
	}
	if rt.members[1].desynced() == "" {
		t.Fatal("transport failure mid-ingest did not latch the member desynced")
	}

	stubs[1].setMode("")
	rt.members[1].heal()
	rt.RefreshStats(ctx)
	if reason := rt.members[1].desynced(); reason != "" {
		t.Fatalf("count matches the maps but the latch did not clear: %s", reason)
	}

	// The first batch committed k gids (node-0's mapped, node-1's
	// burned), so the follow-up starts at base k with its own placement
	// split.
	k2 := batchSizeCovering(t, place, 2, k)
	batch2, per2 := splitBatch(place, 2, k, k2)
	resp, err := rc.Ingest(ctx, batch2, true)
	if err != nil {
		t.Fatal(err)
	}
	if nr := nodeResult(t, resp, NodeNames(2)[1]); nr.Error != "" || nr.Accepted != per2[1] {
		t.Fatalf("post-reconcile slice: %+v, want %d accepted", nr, per2[1])
	}
	if got, want := stubs[1].count(), per2[1]; got != want {
		t.Fatalf("member holds %d records, want %d", got, want)
	}
}

// TestRoutedIngestFlushErrorNotCommitted pins the deferred-fold case: a
// member acks the slice (202 + flushError) but which records the
// matcher will drop is unknown, so the router must not commit the
// mapping — the slice's gids burn as holes and the member latches
// desynced until the fold outcome is reconciled.
func TestRoutedIngestFlushErrorNotCommitted(t *testing.T) {
	ctx := context.Background()
	rt, rc, stubs, place := stubCluster(t, 2, 0)
	k := batchSizeCovering(t, place, 2, 0)
	batch, per := splitBatch(place, 2, 0, k)

	stubs[1].setMode("flusherr")
	resp, err := rc.Ingest(ctx, batch, true)
	if err != nil {
		t.Fatalf("ingest with one flush-failing member: %v", err)
	}
	if resp.Accepted != per[0] {
		t.Fatalf("accepted %d, want only node-0's %d (flush-failed slice must not count)", resp.Accepted, per[0])
	}
	if resp.FlushError != "" {
		t.Fatalf("router forwarded FlushError %q as success; the slice must fail instead", resp.FlushError)
	}
	nr := nodeResult(t, resp, NodeNames(2)[1])
	if nr.Code != client.CodeNodeDesynced {
		t.Fatalf("flush-failed slice reported code %q, want %q", nr.Code, client.CodeNodeDesynced)
	}
	if rt.members[1].desynced() == "" {
		t.Fatal("flush failure after ack did not latch the member desynced")
	}

	// The un-foldable slice burned its gids as holes: a point query for
	// one answers unknown_trajectory instead of another trajectory.
	st, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Holes != per[1] {
		t.Fatalf("cluster reports %d holes, want %d", st.Cluster.Holes, per[1])
	}
	for gid := 0; gid < k; gid++ {
		if place.Owner(gid) != 1 {
			continue
		}
		_, err := rc.Where(ctx, client.WhereRequest{Traj: gid, T: 0, Alpha: 0.1})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != client.CodeUnknownTrajectory {
			t.Fatalf("where(burned gid %d): got %v, want %s", gid, err, client.CodeUnknownTrajectory)
		}
	}
}

// TestRoutedIngestAllFailedBurnsNoHoles pins retry-safety under
// shedding: when no member accepted anything the id space must stay
// untouched, so a client retrying a shed batch does not permanently
// consume a fresh gid range as holes on every attempt.
func TestRoutedIngestAllFailedBurnsNoHoles(t *testing.T) {
	ctx := context.Background()
	rt, rc, stubs, place := stubCluster(t, 2, 0)
	k := batchSizeCovering(t, place, 2, 0)
	batch, _ := splitBatch(place, 2, 0, k)

	for _, s := range stubs {
		s.setMode("backlog")
	}
	for attempt := 0; attempt < 3; attempt++ {
		_, err := rc.Ingest(ctx, batch, true)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != client.CodeBacklog {
			t.Fatalf("attempt %d: got %v, want %s", attempt, err, client.CodeBacklog)
		}
	}
	if n := rt.NumTrajectories(); n != 0 {
		t.Fatalf("fully-failed batches extended the id space to %d", n)
	}
	st, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Holes != 0 {
		t.Fatalf("fully-failed batches burned %d holes", st.Cluster.Holes)
	}

	// And once the backlog clears, the retried batch lands with gid 0.
	for _, s := range stubs {
		s.setMode("")
	}
	resp, err := rc.Ingest(ctx, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FirstSeq != 0 || resp.Accepted != k {
		t.Fatalf("retry after shedding: %+v, want firstSeq 0 and %d accepted", resp, k)
	}
}

// TestRouterRangeBesideRoutedIngest runs range queries from two goroutines
// while routed ingest commits new ids.  Under -race it pins that a range
// reads the id maps only through the snapshot it copied under the lock,
// never the per-member slices handleIngest reassigns.
func TestRouterRangeBesideRoutedIngest(t *testing.T) {
	ctx := context.Background()
	_, rc, stubs, place := stubCluster(t, 2, 8)
	for _, s := range stubs {
		s.mu.Lock()
		s.ranges = []int{0}
		s.mu.Unlock()
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rc.Range(ctx, client.RangeRequest{Rect: client.Rect{MaxX: 1, MaxY: 1}, T: 0, Alpha: 0.1}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	base := 8
	for b := 0; b < 20; b++ {
		batch, _ := splitBatch(place, 2, base, 4)
		resp, err := rc.Ingest(ctx, batch, true)
		if err != nil {
			t.Errorf("ingest batch %d: %v", b, err)
			break
		}
		if resp.Accepted != len(batch) {
			t.Errorf("ingest batch %d: accepted %d of %d", b, resp.Accepted, len(batch))
			break
		}
		base += len(batch)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("range beside ingest: %v", err)
	}
}

// TestRangeNewerThanMapDegrades pins the query/ingest race: a member
// answering with local ids past the router's map snapshot (an applied
// but not yet committed routed ingest) degrades the result to a lower
// bound instead of failing the whole range with a 500.
func TestRangeNewerThanMapDegrades(t *testing.T) {
	ctx := context.Background()
	rt, rc, stubs, place := stubCluster(t, 2, 8)
	counts := make([]int, 2)
	firstOwned := [2]int{-1, -1}
	for gid := 0; gid < 8; gid++ {
		o := place.Owner(gid)
		if firstOwned[o] < 0 {
			firstOwned[o] = gid
		}
		counts[o]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Skip("placement assigns all 8 seed gids to one node")
	}

	// Node 0 answers one mapped id and one past the map snapshot.
	stubs[0].mu.Lock()
	stubs[0].ranges = []int{0, counts[0]}
	stubs[0].mu.Unlock()

	res, err := rc.Range(ctx, client.RangeRequest{Rect: client.Rect{MaxX: 1, MaxY: 1}, T: 0, Alpha: 0.1})
	if err != nil {
		t.Fatalf("range racing an uncommitted ingest: %v (must degrade, not fail)", err)
	}
	if !res.Degraded {
		t.Fatal("result with an untranslatable local id is not marked degraded")
	}
	if len(res.Trajs) != 1 || res.Trajs[0] != firstOwned[0] {
		t.Fatalf("trajs %v, want exactly [%d]", res.Trajs, firstOwned[0])
	}

	// A negative id is never valid and still fails loudly.
	stubs[0].mu.Lock()
	stubs[0].ranges = []int{-1}
	stubs[0].mu.Unlock()
	_, err = rc.Range(ctx, client.RangeRequest{Rect: client.Rect{MaxX: 1, MaxY: 1}, T: 0, Alpha: 0.1})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != client.CodeInternal {
		t.Fatalf("negative local id: got %v, want %s", err, client.CodeInternal)
	}
	_ = rt
}
