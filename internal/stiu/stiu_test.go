package stiu

import (
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/roadnet"
	"utcq/internal/traj"
)

func buildFixtureIndex(t *testing.T, opts Options) (*paperfix.Fixture, *core.Archive, *Index) {
	t.Helper()
	fx := paperfix.MustNew()
	c, err := core.NewCompressor(fx.Graph, core.DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fx, a, ix
}

// occupiedBuckets returns every (interval, region) bucket of ix through
// the Buckets accessor, in no particular order.
func occupiedBuckets(t *testing.T, ix *Index) []*RegionBucket {
	t.Helper()
	var out []*RegionBucket
	for id, iv := range ix.Intervals {
		iv.occ.forEach(func(_, re int) {
			b, err := ix.Buckets(id, roadnet.RegionID(re))
			if err != nil || b == nil {
				t.Fatalf("occupied bucket (%d,%d): %v, %v", id, re, b, err)
			}
			out = append(out, b)
		})
	}
	return out
}

// TestTemporalEntries mirrors Example 3: with 15-minute partitions, the
// tuple whose t.start is closest below 5:21:25 has t.no = 3 (timestamp
// 5:15:26).
func TestTemporalEntries(t *testing.T) {
	_, a, ix := buildFixtureIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 900})
	entry, ok := ix.FindTemporal(0, 5*3600+21*60+25)
	if !ok {
		t.Fatal("no temporal entry found")
	}
	if entry.No != 3 {
		t.Errorf("t.no = %d, want 3", entry.No)
	}
	if entry.Start != 5*3600+15*60+26 {
		t.Errorf("t.start = %d, want 5:15:26", entry.Start)
	}
	// The stored position must let a cursor resume: next timestamp is
	// 5:19:25.
	curs := &core.TimeCursor{}
	if err := a.Trajs[0].ResetTimeCursor(curs, a.Opts.Ts, int(entry.Pos), entry.Start, int(entry.No)); err != nil {
		t.Fatal(err)
	}
	if !curs.Next() {
		t.Fatal("cursor cannot advance")
	}
	if curs.T() != 5*3600+19*60+25 {
		t.Errorf("resumed timestamp = %d, want 5:19:25", curs.T())
	}
	// Query before the trajectory start finds nothing.
	if _, ok := ix.FindTemporal(0, 100); ok {
		t.Error("entry found before trajectory start")
	}
}

func TestSpatialTuples(t *testing.T) {
	fx, _, ix := buildFixtureIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 1800})
	// Collect all regions with tuples for trajectory 0.
	total := int64(0)
	var refTuples []RefTuple
	for _, b := range occupiedBuckets(t, ix) {
		refTuples = append(refTuples, b.Refs...)
		total += int64(len(b.Refs))
	}
	for _, iv := range ix.Intervals {
		total += iv.NonRefs
	}
	if total == 0 {
		t.Fatal("no spatial tuples built")
	}
	for _, rt := range refTuples {
		if rt.Orig != 0 {
			t.Errorf("unexpected reference group %d", rt.Orig)
		}
	}
	// The group (instance 0 is the reference) starts in the region of v1:
	// the reference enters it, and all three instances do, so ptotal ~1.
	startRe := ix.Grid.RegionOfPosition(fx.Graph, roadnet.Position{Edge: fx.Edge("v1", "v2"), NDist: 0})
	found := false
	for iv := range ix.Intervals {
		b, err := ix.Buckets(iv, startRe)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			continue
		}
		for _, rt := range b.Refs {
			found = true
			if !rt.Enters {
				t.Errorf("interval %d: start-region tuple does not enter", iv)
			}
			if rt.PTotal < 0.95 || rt.PTotal > 1.05 {
				t.Errorf("interval %d: start-region ptotal = %g, want ~1", iv, rt.PTotal)
			}
		}
	}
	if !found {
		t.Error("no tuple for the start region")
	}
	// Every reference tuple's pmax must be below the group's total and
	// equal the best non-reference probability when present.
	for _, rt := range refTuples {
		if rt.PMax > rt.PTotal+1e-6 {
			t.Errorf("pmax %g > ptotal %g", rt.PMax, rt.PTotal)
		}
	}
}

func TestTrajRegionAggregation(t *testing.T) {
	_, _, ix := buildFixtureIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 1800})
	// The region of v9 (only Tu13 goes there, p = 0.05), aggregated over
	// the buckets of trajectory 0's interval span as the When gate reads it.
	re9 := ix.Grid.CellOf(6400, -790)
	entries, err := ix.TemporalEntries(0)
	if err != nil {
		t.Fatal(err)
	}
	var maxPMax float32
	refs := 0
	for iv := ix.IntervalOf(entries[0].Start); iv <= ix.IntervalOf(entries[len(entries)-1].Start); iv++ {
		b, err := ix.Buckets(iv, re9)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			continue
		}
		for _, rt := range b.Refs {
			if rt.Traj != 0 {
				continue
			}
			refs++
			if rt.PMax > maxPMax {
				maxPMax = rt.PMax
			}
		}
	}
	if refs == 0 {
		t.Fatalf("no tuples for the v9 region")
	}
	// Only the non-reference Tu13 (p=0.05) enters re9: Lemma 1 uses this
	// pmax to skip decompression for alpha > 0.05.
	if maxPMax <= 0 || maxPMax > 0.06 {
		t.Errorf("pmax at v9 region = %g, want ~0.05", maxPMax)
	}
}

func TestIndexSizes(t *testing.T) {
	_, a, ix := buildFixtureIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 1800})
	if ix.TemporalSizeBits() <= 0 {
		t.Error("temporal size is zero")
	}
	if ix.SpatialSizeBits(a.VertexBits) <= 0 {
		t.Error("spatial size is zero")
	}
	// Finer grids create more tuples.
	_, a2, ix2 := buildFixtureIndex(t, Options{GridNX: 32, GridNY: 32, IntervalDur: 1800})
	if ix2.SpatialSizeBits(a2.VertexBits) < ix.SpatialSizeBits(a.VertexBits) {
		t.Error("finer grid produced a smaller spatial index")
	}
}

func TestBuildOnGeneratedDataset(t *testing.T) {
	p := gen.HZ()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 30, 7)
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
	ix, err := Build(a, Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
	if err != nil {
		t.Fatal(err)
	}
	// Every trajectory must have temporal entries covering its start.
	for j, u := range ds.Trajectories {
		e, ok := ix.FindTemporal(j, u.T[0])
		if !ok || e.No != 0 || e.Start != u.T[0] {
			t.Fatalf("traj %d: first temporal entry wrong: %+v ok=%v", j, e, ok)
		}
		mid := u.T[len(u.T)/2]
		e, ok = ix.FindTemporal(j, mid)
		if !ok || e.Start > mid {
			t.Fatalf("traj %d: mid temporal entry wrong", j)
		}
		// The trajectory must appear in its intervals' candidate lists.
		iv := ix.IntervalOf(u.T[0])
		cands, err := ix.Candidates(iv)
		if err != nil {
			t.Fatal(err)
		}
		foundSelf := false
		for _, cj := range cands {
			if int(cj) == j {
				foundSelf = true
			}
		}
		if !foundSelf {
			t.Fatalf("traj %d missing from interval %d", j, iv)
		}
	}
	// ptotal consistency: every group tuple's ptotal must not exceed the
	// trajectory's total probability (~1).
	for _, b := range occupiedBuckets(t, ix) {
		for _, rt := range b.Refs {
			if rt.PTotal > 1.05 {
				t.Errorf("ptotal %g > 1", rt.PTotal)
			}
			if rt.PMax > rt.PTotal+1e-6 {
				t.Errorf("pmax %g > ptotal %g", rt.PMax, rt.PTotal)
			}
		}
	}
}
