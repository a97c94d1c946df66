package query

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// whenWorkload is a fixed set of when queries that hit populated buckets,
// shared by the allocation assertion and the benchmark.
type whenWorkload struct {
	eng  *Engine
	js   []int
	locs []roadnet.Position
}

// fromSidecar selects an index decoded from its sidecar bytes instead of
// the built one, so the assertion also covers the lazy decode path.
func buildWhenWorkload(tb testing.TB, fromSidecar bool) *whenWorkload {
	tb.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 60, 7)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions(p.Ts)
	c, err := core.NewCompressor(ds.Graph, opts)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := stiu.Build(a, stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
	if err != nil {
		tb.Fatal(err)
	}
	if fromSidecar {
		enc, err := ix.EncodeSidecar(1)
		if err != nil {
			tb.Fatal(err)
		}
		ix, err = stiu.DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
		if err != nil {
			tb.Fatal(err)
		}
	}
	w := &whenWorkload{eng: NewEngine(a, ix)}
	oracle := NewOracle(ds.Graph, ds.Trajectories)
	rng := rand.New(rand.NewSource(3))
	for len(w.js) < 32 {
		j := rng.Intn(len(ds.Trajectories))
		pi, err := oracle.path(j, rng.Intn(len(ds.Trajectories[j].Instances)))
		if err != nil {
			tb.Fatal(err)
		}
		edge := pi.Edges[rng.Intn(len(pi.Edges))]
		w.js = append(w.js, j)
		w.locs = append(w.locs, ds.Graph.PositionAtRD(edge, rng.Float64()))
	}
	return w
}

func (w *whenWorkload) run(dst []WhenResult) ([]WhenResult, error) {
	var err error
	for i, j := range w.js {
		dst, err = w.eng.AppendWhen(dst[:0], j, w.locs[i], 0.05)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// TestAppendWhenAllocationFree asserts the when-path target: with a
// recycled result buffer, AppendWhen performs zero allocations per query,
// matching Where.  The cold case builds a fresh engine for every run, so
// nothing the engine could have kept from an earlier query is warm.
func TestAppendWhenAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name        string
		fromSidecar bool
		cold        bool
	}{
		{"built", false, false},
		{"v2sidecar", true, false},
		{"cold", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWhenWorkload(t, tc.fromSidecar)
			buf, err := w.run(nil) // size the result buffer and the scratch pools
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				var err error
				if buf, err = w.run(buf); err != nil {
					t.Fatal(err)
				}
			}
			var allocs float64
			if tc.cold {
				allocs = coldAllocsPerRun(20, func() { w.eng = NewEngine(w.eng.Arch, w.eng.Ix) }, run)
			} else {
				allocs = testing.AllocsPerRun(20, run)
			}
			if allocs != 0 {
				t.Fatalf("AppendWhen allocates %.1f times per %d queries, want 0", allocs, len(w.js))
			}
		})
	}
}

// coldAllocsPerRun is testing.AllocsPerRun with a setup step before every
// run whose allocations are not counted.  Like AllocsPerRun it pins
// GOMAXPROCS to 1, so pooled objects come back on the P that put them, and
// warms up with one unmeasured run (changing GOMAXPROCS drops the pools'
// contents).  The collector is off meanwhile, because the setup's garbage
// would otherwise start collections that empty the process-wide scratch
// and cursor pools, which is the pools' cost, not the query's.
func coldAllocsPerRun(runs int, setup, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setup()
	f()
	var total uint64
	var before, after runtime.MemStats
	for r := 0; r < runs; r++ {
		setup()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs))
}

// TestWhereRangeAllocsCold pins the cold point and range paths: on a fresh
// engine per run, Where allocates at most its result slice and AppendRange
// with a recycled dst allocates nothing.
func TestWhereRangeAllocsCold(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := buildHarness(t, gen.HZ(), 30, 61)
	rng := rand.New(rand.NewSource(17))
	type whereQ struct {
		j int
		t int64
	}
	var wheres []whereQ
	var ranges []mixedQuery
	for len(wheres) < 32 {
		j := rng.Intn(len(h.ds.Trajectories))
		u := h.ds.Trajectories[j]
		tq := u.T[0] + rng.Int63n(u.T[len(u.T)-1]-u.T[0]+1)
		wheres = append(wheres, whereQ{j, tq})
		// A rectangle centred on where instance 0 is, so paths are read.
		loc, err := h.oracle.Where(j, tq, 0)
		if err != nil || len(loc) == 0 {
			t.Fatalf("oracle where(%d, %d): %v, %d results", j, tq, err, len(loc))
		}
		x, y := h.ds.Graph.Coords(loc[0].Loc)
		ranges = append(ranges, mixedQuery{j: j, t: tq, alpha: 0.2,
			re: roadnet.Rect{MinX: x - 300, MinY: y - 300, MaxX: x + 300, MaxY: y + 300}})
	}
	e := h.eng
	fresh := func() { e = NewEngine(h.eng.Arch, h.eng.Ix) }
	hits := 0
	where := func() {
		for _, q := range wheres {
			res, err := e.Where(q.j, q.t, 0)
			if err != nil {
				t.Fatal(err)
			}
			hits += len(res)
		}
	}
	var dst []int
	rangeRun := func() {
		var err error
		for _, q := range ranges {
			if dst, err = e.AppendRange(dst[:0], q.re, q.t, q.alpha); err != nil {
				t.Fatal(err)
			}
			hits += len(dst)
		}
	}
	where()
	rangeRun() // size dst and the scratch pools
	if hits == 0 {
		t.Fatal("workload found nothing")
	}
	if a := coldAllocsPerRun(20, fresh, where); a > float64(len(wheres)) {
		t.Errorf("Where allocates %.1f times per %d queries, want at most one each", a, len(wheres))
	}
	if a := coldAllocsPerRun(20, fresh, rangeRun); a != 0 {
		t.Errorf("AppendRange allocates %.1f times per %d queries, want 0", a, len(ranges))
	}
}

func BenchmarkQueryWhen(b *testing.B) {
	w := buildWhenWorkload(b, false)
	buf, err := w.run(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = w.run(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
