package core_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"utcq/internal/core"
	"utcq/internal/exp"
	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/traj"
)

// v1Fixture is an archive written by the version-1 container writer,
// with the road network and input it was compressed from.
type v1Fixture struct {
	file string
	g    *roadnet.Graph
	src  []*traj.Uncertain
}

func v1Fixtures(t *testing.T) []v1Fixture {
	t.Helper()
	fx := paperfix.MustNew()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []v1Fixture{
		{"v1_paperfix.utcq", fx.Graph, []*traj.Uncertain{fx.Tu1}},
		{"v1_cd25.utcq", ds.Graph, ds.Trajectories},
	}
}

// TestSerializeGoldenV1 pins read compatibility with archive version 1,
// whose directory repeated the record heads in fixed-width fields.  Each
// checked-in version-1 fixture must load with the directory a fresh
// compression of its input holds, re-save as exactly that compression's
// version-2 bytes, decode like its re-save, and answer Where, When and
// Range through a query engine like the oracle over its decoded data.
func TestSerializeGoldenV1(t *testing.T) {
	for _, fx := range v1Fixtures(t) {
		t.Run(fx.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			v1, err := core.LoadBytes(data, fx.g)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.NewCompressor(fx.g, v1.Opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := c.Compress(fx.src)
			if err != nil {
				t.Fatal(err)
			}
			checkDirectory(t, v1, fresh)
			resaved, want := saveBytes(t, v1), saveBytes(t, fresh)
			if !bytes.Equal(resaved, want) {
				t.Fatal("the version-1 archive re-saves differently from a fresh compression")
			}
			v2, err := core.LoadBytes(resaved, fx.g)
			if err != nil {
				t.Fatal(err)
			}
			us, err := v1.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			us2, err := v2.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(us, us2) {
				t.Fatal("the version-1 archive decodes differently from its version-2 re-save")
			}
			checkQueriesMatchOracle(t, v1, us)
		})
	}
}

func saveBytes(t *testing.T, a *core.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkDirectory requires got's point counts and instance directory to
// equal want's, p bit for bit.
func checkDirectory(t *testing.T, got, want *core.Archive) {
	t.Helper()
	if len(got.Trajs) != len(want.Trajs) {
		t.Fatalf("%d trajectories, want %d", len(got.Trajs), len(want.Trajs))
	}
	for j, tr := range got.Trajs {
		w := want.Trajs[j]
		if tr.NumPoints != w.NumPoints || len(tr.Insts) != len(w.Insts) {
			t.Fatalf("trajectory %d: %d points and %d instances, want %d and %d",
				j, tr.NumPoints, len(tr.Insts), w.NumPoints, len(w.Insts))
		}
		for i, m := range tr.Insts {
			wm := w.Insts[i]
			if m.IsRef != wm.IsRef || m.RefOrig != wm.RefOrig || m.Start != wm.Start ||
				math.Float64bits(m.P) != math.Float64bits(wm.P) {
				t.Fatalf("trajectory %d instance %d: %+v, want %+v", j, i, m, wm)
			}
		}
	}
}

// checkQueriesMatchOracle runs seeded Where, When and Range queries on an
// engine over a and requires the answers of the oracle over us, a's
// decoded trajectories.
func checkQueriesMatchOracle(t *testing.T, a *core.Archive, us []*traj.Uncertain) {
	t.Helper()
	ix, err := stiu.Build(a, stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(a, ix)
	o := query.NewOracle(a.Graph, us)
	rng := rand.New(rand.NewSource(3))
	b := a.Graph.Bounds()
	whens, ranges := 0, 0
	for trial := 0; trial < 60; trial++ {
		j := rng.Intn(len(us))
		T := us[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		alpha := []float64{0, 0.1, 0.3}[rng.Intn(3)]

		got, err := eng.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("where(%d, %d, %g) = %v, oracle %v", j, tq, alpha, got, want)
		}

		all, err := o.Where(j, tq, 0)
		if err != nil || len(all) == 0 {
			t.Fatalf("oracle where(%d, %d): %v, %d results", j, tq, err, len(all))
		}
		loc := all[rng.Intn(len(all))].Loc
		gotWhen, err := eng.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		wantWhen, err := o.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotWhen, wantWhen) {
			t.Fatalf("when(%d, %v, %g) = %v, oracle %v", j, loc, alpha, gotWhen, wantWhen)
		}

		x, y := a.Graph.Coords(loc)
		fw, fh := 0.05+0.35*rng.Float64(), 0.05+0.35*rng.Float64()
		re := roadnet.Rect{
			MinX: x - fw*(b.MaxX-b.MinX)/2, MaxX: x + fw*(b.MaxX-b.MinX)/2,
			MinY: y - fh*(b.MaxY-b.MinY)/2, MaxY: y + fh*(b.MaxY-b.MinY)/2,
		}
		gotRange, err := eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		wantRange, err := o.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotRange, wantRange) {
			t.Fatalf("range(%v, %d, %g) = %v, oracle %v", re, tq, alpha, gotRange, wantRange)
		}
		whens += len(gotWhen)
		ranges += len(gotRange)
	}
	if whens == 0 || ranges == 0 {
		t.Fatalf("vacuous sweep: %d when passages, %d range hits", whens, ranges)
	}
	t.Logf("%d when passages, %d range hits", whens, ranges)
}

// TestLoadBytesRestoresDirectory: after LoadBytes(Save(a)) on every
// paper profile, each trajectory's point count and every instance's
// reference flag, reference, record start and p (bit for bit) equal what
// the encoder recorded, though the container stores only the starts.
func TestLoadBytesRestoresDirectory(t *testing.T) {
	for _, base := range gen.Profiles() {
		p := base
		p.Network.Cols, p.Network.Rows = 20, 20
		ds, err := gen.Build(p, 30, 17)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCompressor(ds.Graph, exp.CoreOptionsFor(p))
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Compress(ds.Trajectories)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.LoadBytes(saveBytes(t, a), ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) { checkDirectory(t, back, a) })
	}
}
