package stiu

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"utcq/internal/core"
	"utcq/internal/roadnet"
)

// rectProbeStats totals what one sweep of checkRectMatchesProbe saw, so a
// test can require that the sweep was not vacuous.
type rectProbeStats struct {
	buckets, pruned, decoded int64
}

// checkRectMatchesProbe requires AppendBucketsInRect on fast to return
// exactly the non-nil Buckets(iv, c) over CellsInRect(r) on probe, in
// order, after a dst prefix it must keep, and to move the
// RegionPrunedNoTouch and RegionBlocksDecoded counters by exactly what
// the per-cell probes moved them.  probe and fast may be the same index
// only when probing decodes nothing (a built index).
func checkRectMatchesProbe(t testing.TB, probe, fast *Index, iv int, r roadnet.Rect, tot *rectProbeStats) {
	t.Helper()
	p0 := probe.Stats()
	var want []*RegionBucket
	for _, c := range probe.Grid.CellsInRect(r) {
		b, err := probe.Buckets(iv, c)
		if err != nil {
			t.Fatalf("Buckets(%d, %d): %v", iv, c, err)
		}
		if b != nil {
			want = append(want, b)
		}
	}
	p1 := probe.Stats()

	sentinel := &RegionBucket{}
	f0 := fast.Stats()
	got, err := fast.AppendBucketsInRect([]*RegionBucket{sentinel}, iv, r)
	f1 := fast.Stats()
	if err != nil {
		t.Fatalf("AppendBucketsInRect(%d, %+v): %v", iv, r, err)
	}
	if len(got) == 0 || got[0] != sentinel {
		t.Fatalf("AppendBucketsInRect(%d, %+v) dropped the dst prefix", iv, r)
	}
	if got = got[1:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("AppendBucketsInRect(%d, %+v) = %d buckets, per-cell probes found %d (or a different order)",
			iv, r, len(got), len(want))
	}
	wantPruned := p1.RegionPrunedNoTouch - p0.RegionPrunedNoTouch
	wantDecoded := p1.RegionBlocksDecoded - p0.RegionBlocksDecoded
	if d := f1.RegionPrunedNoTouch - f0.RegionPrunedNoTouch; d != wantPruned {
		t.Fatalf("AppendBucketsInRect(%d, %+v) counted %d empty cells, per-cell probes %d", iv, r, d, wantPruned)
	}
	if d := f1.RegionBlocksDecoded - f0.RegionBlocksDecoded; d != wantDecoded {
		t.Fatalf("AppendBucketsInRect(%d, %+v) decoded %d buckets, per-cell probes %d", iv, r, d, wantDecoded)
	}
	if tot != nil {
		tot.buckets += int64(len(want))
		tot.pruned += wantPruned
		tot.decoded += wantDecoded
	}
}

// rectVariants returns (probe, fast) index pairs over one archive and
// grid: the built index twice (it never decodes, so one object serves
// both paths) and two independent decodes of its sidecar, so the decode
// counters of the two paths start equal.
func rectVariants(t testing.TB, a *core.Archive, opts Options) (names []string, pairs [][2]*Index) {
	t.Helper()
	built, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := built.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	var dec [2]*Index
	for i := range dec {
		if dec[i], err = DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts); err != nil {
			t.Fatal(err)
		}
	}
	return []string{"built", "sidecar"}, [][2]*Index{{built, built}, dec}
}

// rectIntervals returns the index's interval ids in ascending order plus
// one id below and one above them, which are absent.
func rectIntervals(ix *Index) []int {
	var ids []int
	for id := range ix.Intervals {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) == 0 {
		return []int{0}
	}
	return append(ids, ids[0]-1, ids[len(ids)-1]+1)
}

// rectAt maps fractions of the bounds' width and height to a rectangle.
func rectAt(b roadnet.Rect, x0, y0, x1, y1 float64) roadnet.Rect {
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	return roadnet.Rect{MinX: b.MinX + x0*w, MinY: b.MinY + y0*h, MaxX: b.MinX + x1*w, MaxY: b.MinY + y1*h}
}

// TestAppendBucketsInRectMatchesProbe pins the row-walking rectangle
// accessor to the per-cell probe it replaces on the range path: same
// buckets in the same order, same counter deltas, on grids whose rows fill
// one word each (64×64), straddle words and rank superblocks (37×23,
// 100×3), or hold a single cell (1×1), for built and decoded indexes.
func TestAppendBucketsInRectMatchesProbe(t *testing.T) {
	a, _ := buildGeneratedIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 1800})
	b := a.Graph.Bounds()
	rects := []roadnet.Rect{
		b,
		rectAt(b, -0.5, -0.5, 1.5, 1.5),   // covers the bounds and more
		rectAt(b, -0.3, 0.2, 0.4, 0.7),    // partly left of the bounds
		rectAt(b, 0.6, 0.7, 1.4, 1.2),     // partly above and right
		rectAt(b, -2, -2, -1, -1),         // wholly outside: clamps to a corner
		rectAt(b, 0.5, 0.5, 0.5, 0.5),     // a point
		rectAt(b, 0.3, 0.1, 0.3, 0.9),     // a vertical segment
		rectAt(b, 0.1, 0.4, 0.9, 0.4),     // a horizontal segment
		rectAt(b, 0.9, 0.1, 0.1, 0.9),     // inverted in x
		rectAt(b, 0.1, 0.9, 0.9, 0.1),     // inverted in y
		rectAt(b, 0.5, 0.5, 0.4999, 0.5),  // inverted inside one cell
		rectAt(b, 1.5, 1.5, -0.5, -0.5),   // inverted across the bounds
		rectAt(b, math.NaN(), 0, 1, 1),    // NaN edge
		rectAt(b, 0, 0, math.Inf(1), 0.5), // infinite edge
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		f := func() float64 { return -0.3 + 1.6*rng.Float64() }
		rects = append(rects, rectAt(b, f(), f(), f(), f()))
	}
	for _, dims := range [][2]int{{64, 64}, {37, 23}, {100, 3}, {1, 1}} {
		opts := Options{GridNX: dims[0], GridNY: dims[1], IntervalDur: 1800}
		names, pairs := rectVariants(t, a, opts)
		for v, pair := range pairs {
			var tot rectProbeStats
			for _, iv := range rectIntervals(pair[0]) {
				for _, r := range rects {
					checkRectMatchesProbe(t, pair[0], pair[1], iv, r, &tot)
				}
			}
			if tot.buckets == 0 {
				t.Errorf("%dx%d %s: the sweep found no bucket", dims[0], dims[1], names[v])
			}
			if tot.pruned == 0 && dims != [2]int{1, 1} {
				t.Errorf("%dx%d %s: the sweep met no empty cell", dims[0], dims[1], names[v])
			}
			if (tot.decoded > 0) != (names[v] == "sidecar") {
				t.Errorf("%dx%d %s: the sweep decoded %d buckets", dims[0], dims[1], names[v], tot.decoded)
			}
		}
	}
}

// TestAppendBucketsInRectConcurrent has goroutines race to decode the
// same buckets of one sidecar-decoded index through AppendBucketsInRect
// (run with -race).  Every goroutine must see the buckets a serial pass
// over a second decode sees, and the shared counters must end at four
// times the serial pass's empty cells.
func TestAppendBucketsInRectConcurrent(t *testing.T) {
	a, _ := buildGeneratedIndex(t, Options{GridNX: 8, GridNY: 8, IntervalDur: 1800})
	_, pairs := rectVariants(t, a, Options{GridNX: 37, GridNY: 23, IntervalDur: 1800})
	shared, serial := pairs[1][0], pairs[1][1]
	ivs := rectIntervals(serial)
	rects := []roadnet.Rect{
		rectAt(a.Graph.Bounds(), 0, 0, 1, 1),
		rectAt(a.Graph.Bounds(), 0.2, 0.1, 0.7, 0.6),
		rectAt(a.Graph.Bounds(), 0.5, 0.4, 1.1, 0.9),
	}
	var want [][]*RegionBucket
	for _, iv := range ivs {
		for _, r := range rects {
			got, err := serial.AppendBucketsInRect(nil, iv, r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, got)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := 0
			for _, iv := range ivs {
				for _, r := range rects {
					got, err := shared.AppendBucketsInRect(nil, iv, r)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[k]) {
						t.Errorf("interval %d rect %+v: %d buckets, serial %d", iv, r, len(got), len(want[k]))
						return
					}
					k++
				}
			}
		}()
	}
	wg.Wait()
	if got, one := shared.Stats().RegionPrunedNoTouch, serial.Stats().RegionPrunedNoTouch; got != goroutines*one || one == 0 {
		t.Errorf("RegionPrunedNoTouch %d after %d concurrent passes, serial pass %d", got, goroutines, one)
	}
}
