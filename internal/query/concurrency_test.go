package query

import (
	"math/rand"
	"sync"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/roadnet"
)

// concurrencyWorkload precomputes a deterministic mixed workload so the
// concurrent run and the serial baseline execute exactly the same queries.
type mixedQuery struct {
	kind  int // 0 = where, 1 = when, 2 = range
	j     int
	t     int64
	loc   roadnet.Position
	re    roadnet.Rect
	alpha float64
}

func mixedWorkload(t *testing.T, h *harness, n int, seed int64) []mixedQuery {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bounds := h.ds.Graph.Bounds()
	out := make([]mixedQuery, 0, n)
	for len(out) < n {
		j := rng.Intn(len(h.ds.Trajectories))
		u := h.ds.Trajectories[j]
		q := mixedQuery{kind: rng.Intn(3), j: j, alpha: rng.Float64() * 0.6}
		switch q.kind {
		case 0:
			q.t = u.T[0] + rng.Int63n(u.T[len(u.T)-1]-u.T[0]+1)
		case 1:
			ins := &u.Instances[rng.Intn(len(u.Instances))]
			path, err := ins.PathEdges(h.ds.Graph)
			if err != nil || len(path) == 0 {
				continue
			}
			q.loc = h.ds.Graph.PositionAtRD(path[rng.Intn(len(path))], rng.Float64())
		case 2:
			q.t = u.T[0] + rng.Int63n(u.T[len(u.T)-1]-u.T[0]+1)
			w := (bounds.MaxX - bounds.MinX) * 0.1
			x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX-w)
			y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY-w)
			q.re = roadnet.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
		}
		out = append(out, q)
	}
	return out
}

func runMixed(t *testing.T, e *Engine, q mixedQuery) interface{} {
	t.Helper()
	switch q.kind {
	case 0:
		r, err := e.Where(q.j, q.t, q.alpha)
		if err != nil {
			t.Error(err)
		}
		return r
	case 1:
		r, err := e.When(q.j, q.loc, q.alpha)
		if err != nil {
			t.Error(err)
		}
		return r
	default:
		r, err := e.Range(q.re, q.t, q.alpha)
		if err != nil {
			t.Error(err)
		}
		return r
	}
}

// TestEngineConcurrentStress hammers one shared Engine from many
// goroutines mixing Where/When/Range (run with -race), then re-runs the
// same workload serially on a fresh engine and requires identical results.
func TestEngineConcurrentStress(t *testing.T) {
	h := buildHarness(t, gen.CD(), 30, 77)
	const goroutines = 8
	const perG = 60
	queries := mixedWorkload(t, h, goroutines*perG, 99)

	results := make([]interface{}, len(queries))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * perG; i < (g+1)*perG; i++ {
				results[i] = runMixed(t, h.eng, queries[i])
			}
		}(g)
	}
	wg.Wait()

	// Serial baseline on a fresh engine over the same archive and index.
	baseline := NewEngine(h.eng.Arch, h.eng.Ix)
	for i, q := range queries {
		want := runMixed(t, baseline, q)
		if !resultsEqual(results[i], want) {
			t.Fatalf("query %d (kind %d): concurrent result %v != serial %v", i, q.kind, results[i], want)
		}
	}

	if h.eng.Stats().PathsDecoded == 0 {
		t.Error("stress run decoded no paths")
	}
}

func resultsEqual(a, b interface{}) bool {
	switch x := a.(type) {
	case []WhereResult:
		y, ok := b.([]WhereResult)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []WhenResult:
		y, ok := b.([]WhenResult)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []int:
		y, ok := b.([]int)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a == nil && b == nil
}

// TestEngineCacheBounded: the engine holds no decoded state, so its memory
// is bounded by construction.  Under a query storm from several
// goroutines an engine built with the deprecated cache options answers
// exactly like a default one, the deprecated cache counters stay 0, and a
// repeated query decodes its instances again instead of finding them
// resident.
func TestEngineCacheBounded(t *testing.T) {
	h := buildHarness(t, gen.CD(), 30, 78)
	e := NewEngineWithOptions(h.eng.Arch, h.eng.Ix, EngineOptions{CacheEntries: 16})
	queries := mixedWorkload(t, h, 400, 101)

	results := make([]interface{}, len(queries))
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := g * 100; i < (g+1)*100; i++ {
				results[i] = runMixed(t, e, queries[i])
			}
		}(g)
	}
	workers.Wait()
	for i, q := range queries {
		if want := runMixed(t, h.eng, q); !resultsEqual(results[i], want) {
			t.Fatalf("query %d (kind %d): %v != default engine's %v", i, q.kind, results[i], want)
		}
	}
	if s := e.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("cache counters %d hits / %d misses, want 0", s.CacheHits, s.CacheMisses)
	}

	// A mid-span where query with alpha 0 reads every instance; replaying
	// it must read them all again.
	u := h.ds.Trajectories[0]
	q := mixedQuery{kind: 0, j: 0, t: (u.T[0] + u.T[len(u.T)-1]) / 2, alpha: 0}
	before := e.Stats().PathsDecoded
	runMixed(t, e, q)
	mid := e.Stats().PathsDecoded
	runMixed(t, e, q)
	after := e.Stats().PathsDecoded
	if n := int64(len(u.Instances)); mid-before != n || after-mid != n {
		t.Errorf("where over %d instances decoded %d then %d", n, mid-before, after-mid)
	}
}

// TestDisableCacheKeepsMeasurementModel: every query pays its own
// decompression, as the paper's measurement model requires, whether or
// not the deprecated DisableCache is set.
func TestDisableCacheKeepsMeasurementModel(t *testing.T) {
	h := buildHarness(t, gen.CD(), 10, 79)
	for _, disable := range []bool{false, true} {
		e := NewEngine(h.eng.Arch, h.eng.Ix)
		e.DisableCache = disable
		u := h.ds.Trajectories[0]
		tq := (u.T[0] + u.T[len(u.T)-1]) / 2
		if _, err := e.Where(0, tq, 0.1); err != nil {
			t.Fatal(err)
		}
		first := e.Stats()
		if first.PathsDecoded == 0 {
			t.Fatalf("DisableCache=%v: first query decoded nothing", disable)
		}
		if _, err := e.Where(0, tq, 0.1); err != nil {
			t.Fatal(err)
		}
		if second := e.Stats(); second.PathsDecoded != 2*first.PathsDecoded {
			t.Errorf("DisableCache=%v: second query decoded %d paths, first %d", disable,
				second.PathsDecoded-first.PathsDecoded, first.PathsDecoded)
		}
	}
}
