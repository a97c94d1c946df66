package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// testIndexOpts keeps tests fast on the small generated networks.
var testIndexOpts = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}

// buildCase generates one dataset and the single-archive reference engine
// the store must match exactly.
type buildCase struct {
	ds  *gen.Dataset
	eng *query.Engine
}

func buildReference(t *testing.T, p gen.Profile, n int, seed int64) *buildCase {
	t.Helper()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, n, seed)
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
	ix, err := stiu.Build(a, testIndexOpts)
	if err != nil {
		t.Fatal(err)
	}
	return &buildCase{ds: ds, eng: query.NewEngine(a, ix)}
}

func buildStore(t *testing.T, bc *buildCase, shards int, assign Assignment) *Store {
	t.Helper()
	opts := DefaultOptions(bc.ds.Profile.Ts)
	opts.NumShards = shards
	opts.Assignment = assign
	opts.Index = testIndexOpts
	s, err := Build(bc.ds.Graph, bc.ds.Trajectories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRect returns a rectangle covering a random fraction of the network.
func randomRect(g *roadnet.Graph, rng *rand.Rand) roadnet.Rect {
	b := g.Bounds()
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	fw, fh := 0.05+rng.Float64()*0.4, 0.05+rng.Float64()*0.4
	x := b.MinX + rng.Float64()*(1-fw)*w
	y := b.MinY + rng.Float64()*(1-fh)*h
	return roadnet.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}
}

// checkStoreMatchesEngine drives identical where/when/range workloads
// through the store and the reference engine and requires exactly equal
// results: the same trajectories compress to the same bytes regardless of
// shard, so even the float fields must match bit for bit.
func checkStoreMatchesEngine(t *testing.T, bc *buildCase, s *Store, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	trajs := bc.ds.Trajectories
	alphas := []float64{0, 0.15, 0.3}

	for trial := 0; trial < 60; trial++ {
		j := rng.Intn(len(trajs))
		T := trajs[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		alpha := alphas[rng.Intn(len(alphas))]

		want, err := bc.eng.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("where(%d, %d, %g): store %v != engine %v", j, tq, alpha, got, want)
		}

		// When at a location the trajectory demonstrably visits.
		if len(want) > 0 {
			loc := want[rng.Intn(len(want))].Loc
			wantW, err := bc.eng.When(j, loc, alpha)
			if err != nil {
				t.Fatal(err)
			}
			gotW, err := s.When(j, loc, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotW, wantW) {
				t.Fatalf("when(%d, %v, %g): store %v != engine %v", j, loc, alpha, gotW, wantW)
			}
		}

		re := randomRect(bc.ds.Graph, rng)
		wantR, err := bc.eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := s.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantR) == 0 && len(gotR) == 0 {
			continue
		}
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("range(%v, %d, %g): store %v != engine %v", re, tq, alpha, gotR, wantR)
		}
	}
}

// TestStoreMatchesEngine is the scatter-gather correctness property: over
// every paper profile, shard count and assignment mode, the sharded store
// answers byte-identically to a single-archive engine on the same dataset.
func TestStoreMatchesEngine(t *testing.T) {
	profiles := []gen.Profile{gen.DK(), gen.CD(), gen.HZ()}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bc := buildReference(t, p, 30, 11)
			for _, assign := range []Assignment{AssignHash, AssignSpatial} {
				for _, shards := range []int{1, 3, 7} {
					s := buildStore(t, bc, shards, assign)
					checkStoreMatchesEngine(t, bc, s, 101+int64(shards))
				}
			}
		})
	}
}

// TestStoreSaveOpen round-trips a store through disk and checks lazy shard
// opening: only the shards a query touches become resident.
func TestStoreSaveOpen(t *testing.T) {
	bc := buildReference(t, gen.CD(), 30, 13)
	s := buildStore(t, bc, 4, AssignHash)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	o, err := Open(dir, bc.ds.Graph, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.OpenShards(); got != 0 {
		t.Fatalf("freshly opened store has %d resident shards, want 0", got)
	}
	if got, want := o.NumShards(), s.NumShards(); got != want {
		t.Fatalf("NumShards = %d, want %d", got, want)
	}
	if got, want := o.NumTrajectories(), len(bc.ds.Trajectories); got != want {
		t.Fatalf("NumTrajectories = %d, want %d", got, want)
	}
	lo, hi := o.TimeSpan()
	slo, shi := s.TimeSpan()
	if lo != slo || hi != shi {
		t.Fatalf("TimeSpan = (%d, %d), want (%d, %d)", lo, hi, slo, shi)
	}

	// A range rectangle entirely outside the network prunes on the
	// manifest's shard bounds: no results, no shard opened.
	b := bc.ds.Graph.Bounds()
	far := roadnet.Rect{MinX: b.MaxX + 1e6, MinY: b.MaxY + 1e6, MaxX: b.MaxX + 2e6, MaxY: b.MaxY + 2e6}
	if hits, err := o.Range(far, (slo+shi)/2, 0.1); err != nil || len(hits) != 0 {
		t.Fatalf("far range = %v, %v", hits, err)
	}
	if got := o.OpenShards(); got != 0 {
		t.Fatalf("far range opened %d shards, want 0", got)
	}

	// A single-trajectory query opens exactly the owning shard.
	j := 0
	T := bc.ds.Trajectories[j].T
	if _, err := o.Where(j, (T[0]+T[len(T)-1])/2, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := o.OpenShards(); got != 1 {
		t.Fatalf("after one where query %d shards resident, want 1", got)
	}

	// A range query scatters everywhere.
	if _, err := o.Range(bc.ds.Graph.Bounds(), T[0], 0); err != nil {
		t.Fatal(err)
	}
	if got := o.OpenShards(); got != 4 {
		t.Fatalf("after a range query %d shards resident, want 4", got)
	}

	checkStoreMatchesEngine(t, bc, o, 17)

	st := o.Stats()
	if st.Shards != 4 || st.OpenShards != 4 || st.Trajectories != len(bc.ds.Trajectories) {
		t.Fatalf("stats = %+v", st)
	}
	if st.Assignment != "hash" {
		t.Fatalf("assignment = %q, want hash", st.Assignment)
	}
}

// TestStoreEagerOpen checks OpenOptions.Eager loads every shard up front.
func TestStoreEagerOpen(t *testing.T) {
	bc := buildReference(t, gen.CD(), 20, 29)
	s := buildStore(t, bc, 3, AssignSpatial)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	o, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.OpenShards(); got != 3 {
		t.Fatalf("eager open left %d shards resident, want 3", got)
	}
	checkStoreMatchesEngine(t, bc, o, 23)
}

// TestOpenRejectsWrongGraph checks the manifest's network fingerprint: a
// store must not open against a different road network.
func TestOpenRejectsWrongGraph(t *testing.T) {
	bc := buildReference(t, gen.CD(), 12, 41)
	s := buildStore(t, bc, 2, AssignHash)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 23, 23 // deliberately different network
	other := roadnet.Generate(p.Network)
	if _, err := Open(dir, other, OpenOptions{}); err == nil {
		t.Fatal("opened a store against a different road network")
	}
	if _, err := Open(dir, bc.ds.Graph, OpenOptions{}); err != nil {
		t.Fatalf("reopen with the build graph failed: %v", err)
	}
}

// TestManifestRejectsCorruption covers the manifest validation paths.
func TestManifestRejectsCorruption(t *testing.T) {
	bc := buildReference(t, gen.CD(), 12, 31)
	s := buildStore(t, bc, 2, AssignHash)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir(), bc.ds.Graph, OpenOptions{}); err == nil {
		t.Fatal("opening an empty directory succeeded")
	}
}

// TestManifestV1V2Refused pins the version policy: a manifest whose
// header says version 1 or 2 (the layouts before the per-entry file length
// and sidecar checksum) fails Open with a versioned error.
func TestManifestV1V2Refused(t *testing.T) {
	bc := buildReference(t, gen.CD(), 6, 5)
	dir := saveStore(t, buildStore(t, bc, 2, AssignHash))
	path := filepath.Join(dir, ManifestName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 2} {
		old := append([]byte(nil), full...)
		binary.LittleEndian.PutUint16(old[len(manifestMagic):], version)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("store: unsupported manifest version %d", version)
		if _, err := Open(dir, bc.ds.Graph, OpenOptions{}); err == nil || err.Error() != want {
			t.Fatalf("Open(manifest v%d) = %v, want %q", version, err, want)
		}
	}
}

// TestAssignSpatialGroups sanity-checks that spatial assignment is total
// and stable: every trajectory maps to a valid shard and the mapping is a
// pure function of the dataset.
func TestAssignSpatialGroups(t *testing.T) {
	bc := buildReference(t, gen.DK(), 20, 37)
	a1, err := assign(bc.ds.Graph, bc.ds.Trajectories, Options{NumShards: 4, Assignment: AssignSpatial})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := assign(bc.ds.Graph, bc.ds.Trajectories, Options{NumShards: 4, Assignment: AssignSpatial})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("spatial assignment is not deterministic")
	}
	for j, si := range a1 {
		if si >= 4 {
			t.Fatalf("trajectory %d assigned to shard %d", j, si)
		}
	}
}

// TestParseAssignment covers the flag parser.
func TestParseAssignment(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Assignment
	}{{"hash", AssignHash}, {"spatial", AssignSpatial}} {
		got, err := ParseAssignment(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAssignment(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAssignment("nope"); err == nil {
		t.Fatal("ParseAssignment accepted garbage")
	}
}
