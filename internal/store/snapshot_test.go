package store

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"utcq/internal/faultfs"
	"utcq/internal/gen"
)

// snapshotFixture builds a 40-trajectory dataset with 16 in the base build
// and the rest available for delta batches.
func snapshotFixture(t *testing.T) (*gen.Dataset, *Store) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(p.Ts)
	opts.NumShards = 2
	opts.Index = testIndexOpts
	s, err := Build(ds.Graph, ds.Trajectories[:16], opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, s
}

// TestSnapshotPinsGeneration is the snapshot-isolation property: a handle
// taken (or pinned via SnapshotAt) before a mutation keeps answering
// exactly as the store did at that generation, while the live store moves
// on — and pins outside the retention window fail with the typed errors
// the server maps to 410/404.
func TestSnapshotPinsGeneration(t *testing.T) {
	ds, s := snapshotFixture(t)
	tus := ds.Trajectories
	rng := rand.New(rand.NewSource(21))

	snap1 := s.Snapshot()
	if snap1.Generation() != 1 {
		t.Fatalf("fresh snapshot at generation %d, want 1", snap1.Generation())
	}
	// Fix a query workload and capture its answers at generation 1.
	queries := make([]func(sn Snapshot) ([]int, error), 0, 8)
	res1 := make([][]int, 0, 8)
	for i := 0; i < 8; i++ {
		re := randomRect(ds.Graph, rng)
		tq := tus[i].T[0]
		alpha := []float64{0, 0.2}[i%2]
		q := func(sn Snapshot) ([]int, error) { return sn.Range(context.Background(), re, tq, alpha) }
		queries = append(queries, q)
		got, err := q(snap1)
		if err != nil {
			t.Fatal(err)
		}
		res1 = append(res1, got)
	}

	if _, err := s.ApplyDelta(tus[16:28], 28); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation %d after delta, want 2", got)
	}

	// The held handle and a fresh pin both still answer at generation 1.
	pin1, err := s.SnapshotAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.NumTrajectories() != 16 || pin1.NumTrajectories() != 16 {
		t.Fatalf("pinned snapshots see %d/%d trajectories, want 16", snap1.NumTrajectories(), pin1.NumTrajectories())
	}
	for i, q := range queries {
		for _, sn := range []Snapshot{snap1, pin1} {
			got, err := q(sn)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 || len(res1[i]) != 0 {
				if !reflect.DeepEqual(got, res1[i]) {
					t.Fatalf("query %d at pinned gen 1: %v, want %v", i, got, res1[i])
				}
			}
		}
	}
	// Pinned single-trajectory queries reject ids born after the pin.
	if _, err := pin1.Where(context.Background(), 20, tus[20].T[0], 0.2); !errors.Is(err, ErrUnknownTrajectory) {
		t.Fatalf("pinned Where on a later trajectory: %v, want ErrUnknownTrajectory", err)
	}
	if _, err := s.Where(20, tus[20].T[0], 0.2); err != nil {
		t.Fatalf("live Where on the same trajectory: %v", err)
	}

	// Retention bounds: beyond-current is unknown; behind-retention is
	// retired once generation 3 arrives.
	if _, err := s.SnapshotAt(99); !errors.Is(err, ErrGenerationUnknown) {
		t.Fatalf("SnapshotAt(99): %v, want ErrGenerationUnknown", err)
	}
	if _, err := s.ApplyDelta(tus[28:40], 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotAt(1); !errors.Is(err, ErrGenerationRetired) {
		t.Fatalf("SnapshotAt(1) at generation 3: %v, want ErrGenerationRetired", err)
	}
	pin2, err := s.SnapshotAt(2)
	if err != nil || pin2.NumTrajectories() != 28 {
		t.Fatalf("SnapshotAt(2): %v (n=%d), want 28 trajectories", err, pin2.NumTrajectories())
	}
	// The long-held gen-1 handle still works even though it is no longer
	// pinnable: retention bounds SnapshotAt, not live handles.
	if got, err := queries[0](snap1); err != nil || !reflect.DeepEqual(got, res1[0]) && (len(got) != 0 || len(res1[0]) != 0) {
		t.Fatalf("held gen-1 handle after retirement: %v, %v", got, err)
	}
}

// TestRangeSinceIncremental pins the union identity watch subscriptions
// rely on: a full Range at generation G plus RangeSince(watermark(G)) at
// every later generation reproduces the later generation's full Range —
// across delta applies AND compactions (whose rescan of moved records the
// union must absorb, not double-count).
func TestRangeSinceIncremental(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		ds, s := snapshotFixture(t)
		tus := ds.Trajectories
		rng := rand.New(rand.NewSource(33 + int64(trial)))
		re := randomRect(ds.Graph, rng)
		tq := tus[rng.Intn(16)].T[0]
		alpha := []float64{0, 0.2, 0.4}[trial%3]

		snap := s.Snapshot()
		full, err := snap.Range(context.Background(), re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		have := map[int]bool{}
		for _, j := range full {
			have[j] = true
		}
		cursor := snap.ShardWatermark()

		step := func(mutate func() error) {
			t.Helper()
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			snap = s.Snapshot()
			added, err := snap.RangeSince(context.Background(), cursor, re, tq, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range added {
				have[j] = true
			}
			cursor = snap.ShardWatermark()
			want, err := snap.Range(context.Background(), re, tq, alpha)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, 0, len(have))
			for j := range have {
				got = append(got, j)
			}
			sort.Ints(got)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d gen %d: incremental union %v != full range %v", trial, snap.Generation(), got, want)
				}
			}
		}

		step(func() error { _, err := s.ApplyDelta(tus[16:28], 28); return err })
		step(func() error { _, err := s.ApplyDelta(tus[28:40], 40); return err })
		step(func() error { _, err := s.Compact(); return err })
		step(func() error { _, err := s.Compact(); return err }) // no-op compact
	}
}

// TestGenerationChanged pins the signal contract: the channel returned
// before a mutation closes when the mutation lands, and a reload then
// observes the advanced generation.
func TestGenerationChanged(t *testing.T) {
	ds, s := snapshotFixture(t)
	gen0, ch := s.GenerationChanged()
	if gen0 != 1 {
		t.Fatalf("initial generation %d, want 1", gen0)
	}
	select {
	case <-ch:
		t.Fatal("signal fired before any mutation")
	default:
	}
	if _, err := s.ApplyDelta(ds.Trajectories[16:20], 20); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("signal did not fire after ApplyDelta")
	}
	if gen1, _ := s.GenerationChanged(); gen1 != 2 {
		t.Fatalf("generation %d after delta, want 2", gen1)
	}
}

// TestRangeCancelledOpensNothing pins the shard-boundary cancellation: a
// range under an already-cancelled context fails with the context's
// error without opening a cold shard or evaluating a warm one.
func TestRangeCancelledOpensNothing(t *testing.T) {
	ds, s := snapshotFixture(t)
	st, err := Open(saveStore(t, s), s.Graph(), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	re, tq := st.Bounds(), ds.Trajectories[0].T[len(ds.Trajectories[0].T)/2]
	if _, err := st.Snapshot().Range(ctx, re, tq, 0.3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cold range: %v, want context.Canceled", err)
	}
	if n := st.OpenShards(); n != 0 {
		t.Fatalf("cancelled range opened %d shards", n)
	}
	if _, err := st.Range(re, tq, 0.3); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().Engine.PathsDecoded
	if before == 0 || st.OpenShards() != st.NumShards() {
		t.Fatalf("warm-up range decoded %d paths over %d of %d shards", before, st.OpenShards(), st.NumShards())
	}
	if _, err := st.Snapshot().Range(ctx, re, tq, 0.3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled warm range: %v, want context.Canceled", err)
	}
	if after := st.Stats().Engine.PathsDecoded; after != before {
		t.Fatalf("cancelled range decoded %d paths", after-before)
	}
}

// gateFS holds every read of a shard archive until gate closes, counting
// the reads.
type gateFS struct {
	faultfs.FS
	gate  chan struct{}
	opens atomic.Int32
}

func (g *gateFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, ".utcq") {
		g.opens.Add(1)
		<-g.gate
	}
	return g.FS.ReadFile(name)
}

// TestColdOpenTimeoutAbandonsWait pins the waitable lazy open: a query
// parked behind a stuck shard open returns at its deadline, and once the
// disk answers the same open serves the next query — no second open.
func TestColdOpenTimeoutAbandonsWait(t *testing.T) {
	ds, s := snapshotFixture(t)
	gfs := &gateFS{FS: faultfs.OS, gate: make(chan struct{})}
	st, err := Open(saveStore(t, s), s.Graph(), OpenOptions{FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	tq := ds.Trajectories[0].T[0]
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	if _, err := st.Snapshot().Where(ctx, 0, tq, 0.2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("where behind a stuck open: %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*deadline {
		t.Fatalf("where behind a stuck open returned after %v, deadline %v", el, deadline)
	}
	close(gfs.gate)
	got, err := st.Where(0, tq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Where(0, tq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("where after the open completed: %v, want %v", got, want)
	}
	if n := gfs.opens.Load(); n != 1 {
		t.Fatalf("shard archive read %d times, want 1", n)
	}
}
