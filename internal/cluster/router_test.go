package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/roadnet"
	"utcq/internal/server"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// equivFixture runs the same data twice: once in a single-node store and
// once split across three placement-filtered members behind a Router —
// the equivalence oracle for every cluster query.
type equivFixture struct {
	ds     *gen.Dataset
	place  *Placement
	rt     *Router
	single *client.Client // the single-node oracle
	routed *client.Client // the cluster under test
}

func newEquivFixture(t *testing.T, p gen.Profile, n int) *equivFixture {
	t.Helper()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	eix := roadnet.NewEdgeIndex(ds.Graph, 4*p.Network.Spacing)
	ingOpts := ingest.Options{Match: p.Match, BatchSize: 64}

	newNode := func(tus []*traj.Uncertain, wal string) *httptest.Server {
		sopts := store.DefaultOptions(p.Ts)
		sopts.NumShards = 3
		st, err := store.Build(ds.Graph, tus, sopts)
		if err != nil {
			t.Fatal(err)
		}
		ing, err := ingest.New(st, eix, wal, ingOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ing.Close() })
		ts := httptest.NewServer(server.New(st, server.Options{Ingester: ing}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}

	dir := t.TempDir()
	singleTS := newNode(ds.Trajectories, filepath.Join(dir, "single.wal"))

	place := NewPlacement(NodeNames(3), DefaultPartitions, DefaultVNodes)
	var members []Member
	for i := 0; i < 3; i++ {
		var sub []*traj.Uncertain
		for gid, tu := range ds.Trajectories {
			if place.Owner(gid) == i {
				sub = append(sub, tu)
			}
		}
		mts := newNode(sub, filepath.Join(dir, NodeNames(3)[i]+".wal"))
		members = append(members, Member{Name: NodeNames(3)[i], URL: mts.URL})
	}

	rt := NewRouter(members, RouterOptions{})
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return &equivFixture{
		ds:     ds,
		place:  place,
		rt:     rt,
		single: client.New(singleTS.URL, client.Options{}),
		routed: client.New(rts.URL, client.Options{}),
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertEquivalent pins the acceptance criterion: every Where, When and
// Range answer from the router is identical to the single-node store over
// the same data.
func (f *equivFixture) assertEquivalent(t *testing.T, phase string) {
	t.Helper()
	ctx := context.Background()
	st, err := f.single.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := f.routed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Trajectories != st.Trajectories {
		t.Fatalf("%s: cluster serves %d trajectories, single node %d", phase, rst.Trajectories, st.Trajectories)
	}
	span := max(st.TimeMax-st.TimeMin, 1)

	// Where over every global id, When wherever Where found something.
	for gid := 0; gid < st.Trajectories; gid++ {
		tq := st.TimeMin + span/2
		if gid < len(f.ds.Trajectories) {
			T := f.ds.Trajectories[gid].T
			tq = (T[0] + T[len(T)-1]) / 2
		}
		want, err := f.single.Where(ctx, client.WhereRequest{Traj: gid, T: tq, Alpha: 0.1})
		if err != nil {
			t.Fatalf("%s: single where(%d): %v", phase, gid, err)
		}
		got, err := f.routed.Where(ctx, client.WhereRequest{Traj: gid, T: tq, Alpha: 0.1})
		if err != nil {
			t.Fatalf("%s: routed where(%d): %v", phase, gid, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: where(%d, %d) diverged:\n cluster %+v\n single  %+v", phase, gid, tq, got, want)
		}
		if gid%3 == 0 && len(want) > 0 {
			loc := client.Position{Edge: want[0].Edge, NDist: want[0].NDist}
			ww, err := f.single.When(ctx, client.WhenRequest{Traj: gid, Loc: loc, Alpha: 0.1})
			if err != nil {
				t.Fatalf("%s: single when(%d): %v", phase, gid, err)
			}
			gw, err := f.routed.When(ctx, client.WhenRequest{Traj: gid, Loc: loc, Alpha: 0.1})
			if err != nil {
				t.Fatalf("%s: routed when(%d): %v", phase, gid, err)
			}
			if !reflect.DeepEqual(gw, ww) {
				t.Fatalf("%s: when(%d) diverged:\n cluster %+v\n single  %+v", phase, gid, gw, ww)
			}
		}
	}

	// Ranges: the full data bounds and a sweep of sub-rectangles, at
	// alpha 0 (no pruning allowed) and above.
	b := st.Bounds
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	rects := []client.Rect{
		b,
		{MinX: b.MinX, MinY: b.MinY, MaxX: b.MinX + w/2, MaxY: b.MinY + h/2},
		{MinX: b.MinX + w/4, MinY: b.MinY + h/4, MaxX: b.MaxX - w/4, MaxY: b.MaxY - h/4},
		{MinX: b.MaxX - w/8, MinY: b.MaxY - h/8, MaxX: b.MaxX, MaxY: b.MaxY},
	}
	for _, alpha := range []float64{0, 0.2} {
		for ri, rect := range rects {
			for k := int64(0); k < 4; k++ {
				tq := st.TimeMin + k*span/4
				want, err := f.single.Range(ctx, client.RangeRequest{Rect: rect, T: tq, Alpha: alpha})
				if err != nil {
					t.Fatalf("%s: single range: %v", phase, err)
				}
				got, err := f.routed.Range(ctx, client.RangeRequest{Rect: rect, T: tq, Alpha: alpha})
				if err != nil {
					t.Fatalf("%s: routed range: %v", phase, err)
				}
				if got.Degraded || want.Degraded {
					t.Fatalf("%s: healthy cluster answered degraded (rect %d)", phase, ri)
				}
				if !eqInts(got.Trajs, want.Trajs) {
					t.Fatalf("%s: range(rect %d, t %d, alpha %g) diverged:\n cluster %v\n single  %v",
						phase, ri, tq, alpha, got.Trajs, want.Trajs)
				}
			}
		}
	}
}

func TestRouterEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile gen.Profile
	}{
		{"DK", gen.DK()},
		{"CD", gen.CD()},
		{"HZ", gen.HZ()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newEquivFixture(t, tc.profile, 18)
			f.assertEquivalent(t, "static")

			// Live phase: identical raw batches ingested through both the
			// router (placement-split) and the single node (whole), compared
			// after every flush — i.e. at every generation the stores pass
			// through — and again after compaction.
			// Only matchable raws: a record the matcher drops consumes a
			// WAL sequence but no store id, so the single node and the
			// cluster would number later trajectories differently and the
			// id-by-id comparison below would be vacuous.  Drop handling
			// has its own test (TestRoutedIngestDropBurnsHole).
			p := tc.profile
			p.Network.Cols, p.Network.Rows = 20, 20
			_, _, allRaws, err := gen.Raws(p, 16, 11)
			if err != nil {
				t.Fatal(err)
			}
			m := mapmatch.New(f.ds.Graph, roadnet.NewEdgeIndex(f.ds.Graph, 4*p.Network.Spacing), p.Match)
			var raws []traj.RawTrajectory
			for _, raw := range allRaws {
				if _, err := m.Match(raw); err == nil {
					raws = append(raws, raw)
				}
				if len(raws) == 8 {
					break
				}
			}
			if len(raws) < 8 {
				t.Fatalf("only %d of %d generated raws are matchable", len(raws), len(allRaws))
			}
			ctx := context.Background()
			for off := 0; off < len(raws); off += 4 {
				end := min(off+4, len(raws))
				var batch []client.RawTrajectory
				for _, raw := range raws[off:end] {
					ct := client.RawTrajectory{}
					for _, pt := range raw.Points {
						ct.Points = append(ct.Points, client.RawPoint{X: pt.X, Y: pt.Y, T: pt.T})
					}
					batch = append(batch, ct)
				}
				sr, err := f.single.Ingest(ctx, batch, true)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := f.routed.Ingest(ctx, batch, true)
				if err != nil {
					t.Fatal(err)
				}
				// FirstSeq semantics differ by design: a node reports its
				// local WAL sequence, the router the first *global* id it
				// assigned the batch.
				if rr.Accepted != sr.Accepted {
					t.Fatalf("ingest diverged: cluster %+v, single %+v", rr, sr)
				}
				if rr.FirstSeq != uint64(18+off) {
					t.Fatalf("router assigned first gid %d, want %d", rr.FirstSeq, 18+off)
				}
				// The router's bounds cache is stale until the next refresh;
				// force one so Range pruning sees post-ingest geometry
				// immediately (the background refresher does this in
				// production).
				f.rt.RefreshStats(ctx)
				f.assertEquivalent(t, "after-ingest")
			}

			if _, err := f.single.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := f.routed.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			f.rt.RefreshStats(ctx)
			f.assertEquivalent(t, "after-compact")
		})
	}
}

// TestRouterStatsAggregation pins the cluster section of /v1/stats.
func TestRouterStatsAggregation(t *testing.T) {
	f := newEquivFixture(t, gen.CD(), 18)
	st, err := f.routed.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("router stats has no cluster section")
	}
	if len(st.Cluster.Nodes) != 3 {
		t.Fatalf("cluster section lists %d nodes, want 3", len(st.Cluster.Nodes))
	}
	total := 0
	for _, n := range st.Cluster.Nodes {
		if n.Error != "" {
			t.Fatalf("node %s reports error %q", n.Name, n.Error)
		}
		total += n.Trajectories
	}
	if total != st.Trajectories || total != 18 {
		t.Fatalf("per-node trajectories sum to %d, stats says %d, want 18", total, st.Trajectories)
	}
	if st.Cluster.Holes != 0 {
		t.Fatalf("fresh cluster has %d holes", st.Cluster.Holes)
	}
}

// TestRoutedIngestDropBurnsHole: a record the member's matcher rejects at
// fold consumed a WAL sequence but produced no trajectory; the router
// must burn that global id as a hole instead of shifting every later id
// on that member.
func TestRoutedIngestDropBurnsHole(t *testing.T) {
	f := newEquivFixture(t, gen.CD(), 18)
	ctx := context.Background()
	st, err := f.single.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := st.Bounds
	far := b.MaxX + 100*(b.MaxX-b.MinX) // way off the network: unmatchable

	// One matchable raw, one unmatchable, one matchable — all pass
	// validation, the middle one dies in the matcher.
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	_, _, allRaws, err := gen.Raws(p, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := mapmatch.New(f.ds.Graph, roadnet.NewEdgeIndex(f.ds.Graph, 4*p.Network.Spacing), p.Match)
	var good []client.RawTrajectory
	for _, raw := range allRaws {
		if _, err := m.Match(raw); err != nil {
			continue
		}
		ct := client.RawTrajectory{}
		for _, pt := range raw.Points {
			ct.Points = append(ct.Points, client.RawPoint{X: pt.X, Y: pt.Y, T: pt.T})
		}
		good = append(good, ct)
		if len(good) == 2 {
			break
		}
	}
	if len(good) < 2 {
		t.Fatal("need two matchable raws")
	}
	bad := client.RawTrajectory{Points: []client.RawPoint{
		{X: far, Y: b.MinY, T: 0}, {X: far, Y: b.MinY + 10, T: 30}, {X: far, Y: b.MinY + 20, T: 60},
	}}
	batch := []client.RawTrajectory{good[0], bad, good[1]}

	resp, err := f.routed.Ingest(ctx, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Dropped) != 1 || resp.Dropped[0] != 1 {
		t.Fatalf("dropped indices = %v, want [1]", resp.Dropped)
	}
	base := int(resp.FirstSeq)

	// The neighbors are queryable, the hole answers unknown_trajectory.
	midT := func(rt client.RawTrajectory) int64 { return rt.Points[len(rt.Points)/2].T }
	for i, gid := range []int{base, base + 2} {
		if _, err := f.routed.Where(ctx, client.WhereRequest{Traj: gid, T: midT(good[i]), Alpha: 0.1}); err != nil {
			t.Fatalf("where(%d) after drop: %v", gid, err)
		}
	}
	_, err = f.routed.Where(ctx, client.WhereRequest{Traj: base + 1, T: midT(good[0]), Alpha: 0.1})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != client.CodeUnknownTrajectory {
		t.Fatalf("where(hole): got %v, want %s", err, client.CodeUnknownTrajectory)
	}
	cst, err := f.routed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Cluster.Holes != 1 {
		t.Fatalf("cluster reports %d holes, want 1", cst.Cluster.Holes)
	}
	// A follow-up batch keeps numbering past the hole and stays exact.
	resp2, err := f.routed.Ingest(ctx, []client.RawTrajectory{good[0]}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.FirstSeq != uint64(base+3) || len(resp2.Dropped) != 0 {
		t.Fatalf("follow-up batch: %+v, want firstSeq %d and no drops", resp2, base+3)
	}
	if _, err := f.routed.Where(ctx, client.WhereRequest{Traj: base + 3, T: midT(good[0]), Alpha: 0.1}); err != nil {
		t.Fatalf("where(%d) after hole: %v", base+3, err)
	}
}

// TestRouterRejectsGenPins: generation pins are per-node state, so the
// router refuses them loudly instead of forwarding one node's pin to
// another.
func TestRouterRejectsGenPins(t *testing.T) {
	f := newEquivFixture(t, gen.CD(), 18)
	_, err := f.routed.Where(context.Background(), client.WhereRequest{Traj: 0, T: 1, Gen: 1})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != client.CodeBadRequest {
		t.Fatalf("gen-pinned routed query: got %v, want %s", err, client.CodeBadRequest)
	}
}

// TestRouterCallerCancelDoesNotQuarantine pins that a member call cut
// short by the caller's own context is not a member failure: a
// cancelled Range and Where fail with the context's error, no member is
// quarantined, health stays ok, and the next query routes normally.
func TestRouterCallerCancelDoesNotQuarantine(t *testing.T) {
	f := newEquivFixture(t, gen.CD(), 18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := f.ds.Graph.Bounds()
	tq := f.ds.Trajectories[0].T[0]
	rr := client.RangeRequest{Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: tq, Alpha: 0.2}
	if res, err := f.rt.Range(ctx, rr); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Range: %+v, %v; want context.Canceled", res, err)
	}
	wr := client.WhereRequest{Traj: 0, T: tq, Alpha: 0.2}
	if _, err := f.rt.Where(ctx, wr); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Where: %v, want context.Canceled", err)
	}
	for _, m := range f.rt.members {
		if m.quarantined() {
			t.Errorf("member %s quarantined by the caller's cancel", m.name)
		}
	}
	if h := f.rt.Health(context.Background()); h.Status != "ok" {
		t.Errorf("health after caller cancels: %+v, want ok", h)
	}
	if _, err := f.routed.Where(context.Background(), wr); err != nil {
		t.Errorf("where after caller cancels: %v", err)
	}
}

// TestPlacementDeterminism: the placement is a pure function of its
// configuration — two independently built instances agree on every owner.
func TestPlacementDeterminism(t *testing.T) {
	a := NewPlacement(NodeNames(5), 128, 64)
	b := NewPlacement(NodeNames(5), 128, 64)
	counts := make([]int, 5)
	for gid := 0; gid < 10_000; gid++ {
		oa, ob := a.Owner(gid), b.Owner(gid)
		if oa != ob {
			t.Fatalf("placement diverged at gid %d: %d vs %d", gid, oa, ob)
		}
		counts[oa]++
	}
	// Consistent hashing with vnodes keeps the load roughly even; a node
	// with under half the fair share means the ring is broken.
	for i, c := range counts {
		if c < 10_000/5/2 {
			t.Fatalf("node %d owns only %d of 10000 trajectories: %v", i, c, counts)
		}
	}
}
