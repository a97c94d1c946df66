package query

import (
	"math/rand"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// cursorEngines builds one archive per profile and two engines over it:
// one on the built StIU index and one on the index decoded from its
// sidecar.
func cursorEngines(t *testing.T, p gen.Profile, n int, seed int64) []*Engine {
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
	sopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := stiu.Build(a, sopts)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := built.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := stiu.DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return []*Engine{NewEngine(a, built), NewEngine(a, v2)}
}

// lazyInside is the engine's former instanceInside over a lazyPath.
func lazyInside(g *roadnet.Graph, pi *lazyPath, re roadnet.Rect, i int, ti, ti1, t int64) (bool, error) {
	if i >= len(pi.PointEdge) {
		return false, nil
	}
	k0 := pi.PointEdge[i]
	k1 := k0
	if i+1 < len(pi.PointEdge) {
		k1 = pi.PointEdge[i+1]
	}
	allIn, anyTouch := true, false
	for k := k0; k <= k1; k++ {
		edge := g.Edge(pi.Edges[k])
		a, b := g.Vertex(edge.From), g.Vertex(edge.To)
		allIn = allIn && re.Contains(a.X, a.Y) && re.Contains(b.X, b.Y)
		anyTouch = anyTouch || re.IntersectsSegment(a.X, a.Y, b.X, b.Y)
	}
	if allIn {
		return true, nil
	}
	if !anyTouch {
		return false, nil
	}
	loc, err := pi.locationAt(i, ti, ti1, t)
	if err != nil {
		return false, err
	}
	x, y := g.Coords(loc)
	return re.Contains(x, y), nil
}

// TestCursorMatchesLazyPath pins the instance cursor to the materializing
// read path it replaced: on DK, CD and HZ, over a built and a sidecar-decoded
// index, the cursor's location, passages and Lemma-2 verdict equal
// lazyPath's bit for bit (== on float64, no tolerance).  Query locations
// cover inner edge points, both edge ends (NDist = length is exactly the
// next edge's start coordinate), and every edge start is also converted
// back to a position directly.
func TestCursorMatchesLazyPath(t *testing.T) {
	for _, pr := range []struct {
		name string
		p    gen.Profile
		seed int64
	}{
		{"DK", gen.DK(), 51},
		{"CD", gen.CD(), 52},
		{"HZ", gen.HZ(), 53},
	} {
		t.Run(pr.name, func(t *testing.T) {
			for vi, e := range cursorEngines(t, pr.p, 25, pr.seed) {
				checkCursorAgainstLazyPath(t, e, rand.New(rand.NewSource(pr.seed*10+int64(vi))))
			}
		})
	}
}

func checkCursorAgainstLazyPath(t *testing.T, e *Engine, rng *rand.Rand) {
	t.Helper()
	g := e.Arch.Graph
	bounds := g.Bounds()
	c := getCursor()
	defer putCursor(c)
	checked := 0
	for trial := 0; trial < 300; trial++ {
		j := rng.Intn(len(e.Arch.Trajs))
		rec := e.Arch.Trajs[j]
		orig := rng.Intn(len(rec.Insts))
		lp, err := buildLazyPath(e.Arch, j, orig)
		if err != nil {
			t.Fatal(err)
		}

		// Where: a time inside the trajectory's span.
		entries, err := e.Ix.TemporalEntries(j)
		if err != nil || len(entries) == 0 {
			t.Fatalf("trajectory %d has no temporal entries (%v)", j, err)
		}
		t0 := entries[0].Start
		t1, _, err := e.timeAt(j, rec.NumPoints-1, false)
		if err != nil {
			t.Fatal(err)
		}
		tq := t0 + rng.Int63n(t1-t0+1)
		i, ti, ti1, ok := e.bracket(j, tq)
		if !ok {
			t.Fatalf("traj %d: t=%d inside [%d, %d] not bracketed", j, tq, t0, t1)
		}
		want, err := lp.locationAt(i, ti, ti1, tq)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.reset(e.Arch, j, orig); err != nil {
			t.Fatal(err)
		}
		got, err := c.locationAt(i, ti, ti1, tq)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("traj %d inst %d t=%d: cursor location %+v, lazyPath %+v", j, orig, tq, got, want)
		}

		// Range: Lemma 2 and the exact fallback, around the where location.
		x, y := g.Coords(want)
		w := (bounds.MaxX - bounds.MinX) * (0.01 + 0.2*rng.Float64())
		re := roadnet.Rect{MinX: x - w*rng.Float64(), MinY: y - w*rng.Float64()}
		re.MaxX, re.MaxY = re.MinX+w, re.MinY+w
		wantIn, err := lazyInside(g, lp, re, i, ti, ti1, tq)
		if err != nil {
			t.Fatal(err)
		}
		gotIn, err := e.instanceInside(c, j, orig, re, i, ti, ti1, tq)
		if err != nil {
			t.Fatal(err)
		}
		if gotIn != wantIn {
			t.Fatalf("traj %d inst %d t=%d rect %+v: cursor inside=%v, lazyPath %v", j, orig, tq, re, gotIn, wantIn)
		}

		// When: an inner point and both ends of an edge on the path.
		edge := lp.Edges[rng.Intn(len(lp.Edges))]
		length := g.Edge(edge).Length
		for _, nd := range []float64{rng.Float64() * length, 0, length} {
			loc := roadnet.Position{Edge: edge, NDist: nd}
			wantPs, err := lp.passagesAt(loc)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.reset(e.Arch, j, orig); err != nil {
				t.Fatal(err)
			}
			gotPs, err := c.appendPassagesAt(nil, loc)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotPs) != len(wantPs) {
				t.Fatalf("traj %d inst %d loc %+v: cursor passages %+v, lazyPath %+v", j, orig, loc, gotPs, wantPs)
			}
			for k := range gotPs {
				if gotPs[k] != wantPs[k] {
					t.Fatalf("traj %d inst %d loc %+v: cursor passages %+v, lazyPath %+v", j, orig, loc, gotPs, wantPs)
				}
			}
		}

		// Every edge start converted back to a position, walking on from
		// the first point as a where query past it would.
		if err := c.reset(e.Arch, j, orig); err != nil {
			t.Fatal(err)
		}
		if err := c.walkToPoint(0); err != nil {
			t.Fatal(err)
		}
		for k := lp.PointEdge[0]; k < len(lp.EdgeCum); k++ {
			got, err := c.positionAtCoord(lp.EdgeCum[k])
			if err != nil {
				t.Fatal(err)
			}
			if want := lp.positionAtCoord(lp.EdgeCum[k]); got != want {
				t.Fatalf("traj %d inst %d edge start %d: cursor %+v, lazyPath %+v", j, orig, k, got, want)
			}
		}
		checked++
	}
	if checked < 250 {
		t.Fatalf("only %d trials checked", checked)
	}
}
