package store

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/roadnet"
)

// benchState is built once and shared by the store benchmarks.
type benchState struct {
	bc *buildCase
	s  *Store
}

var benchCache *benchState

func benchSetup(b *testing.B) *benchState {
	if benchCache != nil {
		return benchCache
	}
	b.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 120, 9)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(p.Ts)
	opts.NumShards = 4
	opts.Index = testIndexOpts
	s, err := Build(ds.Graph, ds.Trajectories, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchCache = &benchState{bc: &buildCase{ds: ds}, s: s}
	return benchCache
}

// BenchmarkStoreBuild measures the parallel sharded compress+index build.
func BenchmarkStoreBuild(b *testing.B) {
	st := benchSetup(b)
	opts := DefaultOptions(st.bc.ds.Profile.Ts)
	opts.NumShards = 4
	opts.Index = testIndexOpts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(st.bc.ds.Graph, st.bc.ds.Trajectories, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWhere measures single-trajectory routing through the shard
// map.
func BenchmarkStoreWhere(b *testing.B) {
	st := benchSetup(b)
	trajs := st.bc.ds.Trajectories
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(trajs))
		T := trajs[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		if _, err := st.s.Where(j, tq, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRange measures the scatter-gather fan-out across shards.
func BenchmarkStoreRange(b *testing.B) {
	st := benchSetup(b)
	g := st.bc.ds.Graph
	bounds := g.Bounds()
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	lo, hi := st.s.TimeSpan()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := bounds.MinX + rng.Float64()*0.75*w
		y := bounds.MinY + rng.Float64()*0.75*h
		re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + 0.25*w, MaxY: y + 0.25*h}
		tq := lo + rng.Int63n(hi-lo+1)
		if _, err := st.s.Range(re, tq, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRangeEmbedded is the store-layer figure of the
// embedded-range workload: 1 500 HZ trajectories at the paper's index
// granularity, 4 shards
// opened from disk, and a query set half of rectangles centred on where a
// trajectory is at one of its timestamps and half of uniform rectangles
// at uniform times, each side 5-40 % of its axis, α ∈ {0.2, 0.5, 0.8}.
// One untimed pass over the set opens the shards and fills the decode
// caches first; b.Loop runs the set-up once, not once per b.N ramp.
func BenchmarkStoreRangeEmbedded(b *testing.B) {
	p := gen.HZ()
	ds, err := gen.Build(p, 1500, 93)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(p.Ts)
	opts.NumShards = 4
	built, err := Build(ds.Graph, ds.Trajectories, opts)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := built.Save(dir); err != nil {
		b.Fatal(err)
	}
	s, err := Open(dir, ds.Graph, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	type rangeQ struct {
		re    roadnet.Rect
		t     int64
		alpha float64
	}
	bounds := ds.Graph.Bounds()
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	lo, hi := s.TimeSpan()
	rng := rand.New(rand.NewSource(4))
	qs := make([]rangeQ, 512)
	for i := range qs {
		fw, fh := 0.05+0.35*rng.Float64(), 0.05+0.35*rng.Float64()
		q := rangeQ{alpha: []float64{0.2, 0.5, 0.8}[rng.Intn(3)]}
		if i%2 == 0 {
			u := ds.Trajectories[rng.Intn(len(ds.Trajectories))]
			locs, err := u.Instances[0].Locations(ds.Graph, u.T)
			if err != nil {
				b.Fatal(err)
			}
			at := locs[rng.Intn(len(locs))]
			x, y := ds.Graph.Coords(at.Pos)
			q.t, q.re = at.T, roadnet.Rect{MinX: x - fw*w/2, MinY: y - fh*h/2, MaxX: x + fw*w/2, MaxY: y + fh*h/2}
		} else {
			x, y := bounds.MinX+rng.Float64()*(1-fw)*w, bounds.MinY+rng.Float64()*(1-fh)*h
			q.t, q.re = lo+rng.Int63n(hi-lo+1), roadnet.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}
		}
		qs[i] = q
	}
	for _, q := range qs {
		if _, err := s.Range(q.re, q.t, q.alpha); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; b.Loop(); i++ {
		q := qs[i%len(qs)]
		if _, err := s.Range(q.re, q.t, q.alpha); err != nil {
			b.Fatal(err)
		}
	}
}

// coldDirs lazily saves stores of two sizes for the cold-open benchmarks.
var coldDirs = map[int]string{}

func coldDir(b *testing.B, n int) (string, *gen.Dataset) {
	b.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, n, 9)
	if err != nil {
		b.Fatal(err)
	}
	dir, ok := coldDirs[n]
	if !ok {
		opts := DefaultOptions(p.Ts)
		opts.NumShards = 4
		opts.Index = testIndexOpts
		s, err := Build(ds.Graph, ds.Trajectories, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Not b.TempDir(): the directory is cached across benchmarks, and
		// b.TempDir is removed when the creating benchmark returns.
		dir, err = os.MkdirTemp("", "utcq-coldopen-*")
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Save(dir); err != nil {
			b.Fatal(err)
		}
		coldDirs[n] = dir
	}
	return dir, ds
}

// BenchmarkStoreColdOpen measures Open plus full shard residency.  With
// mmap and a valid sidecar both scale with the index, not the record
// payload, so the per-trajectory cost should be far below decode cost —
// compare the trajs=120 and trajs=480 lines.
func BenchmarkStoreColdOpen(b *testing.B) {
	for _, n := range []int{120, 480} {
		b.Run(fmt.Sprintf("trajs=%d", n), func(b *testing.B) {
			dir, ds := coldDir(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, ds.Graph, OpenOptions{Eager: true})
				if err != nil {
					b.Fatal(err)
				}
				if st := s.Stats(); st.SidecarRebuilds != 0 {
					b.Fatalf("cold open rebuilt %d sidecars", st.SidecarRebuilds)
				}
			}
		})
	}
}

// BenchmarkStoreFirstQuery measures time-to-first-answer from a cold
// directory: a lazy Open plus one Where, the latency a restarted server
// pays on its first request.
func BenchmarkStoreFirstQuery(b *testing.B) {
	dir, ds := coldDir(b, 120)
	T := ds.Trajectories[0].T
	tq := (T[0] + T[len(T)-1]) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, ds.Graph, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Where(0, tq, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWhenCold measures the first When on a freshly opened
// store: lazy Open, then one temporal-section-touching query.  With a
// sidecar the open decodes no temporal entries, so this is the pin that
// keeps the per-trajectory lazy path from regressing back to eager
// decode-at-open.
func BenchmarkStoreWhenCold(b *testing.B) {
	dir, ds := coldDir(b, 120)
	T := ds.Trajectories[0].T
	tq := (T[0] + T[len(T)-1]) / 2
	// A location trajectory 0 actually visits, from a throwaway store.
	s0, err := Open(dir, ds.Graph, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	wr, err := s0.Where(0, tq, 0)
	if err != nil {
		b.Fatal(err)
	}
	if len(wr) == 0 {
		b.Fatal("no Where results to derive a When location from")
	}
	loc := wr[0].Loc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, ds.Graph, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.When(0, loc, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRangeParallel drives Range from many goroutines, the
// serving shape utcqd exposes.
func BenchmarkStoreRangeParallel(b *testing.B) {
	st := benchSetup(b)
	g := st.bc.ds.Graph
	bounds := g.Bounds()
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	lo, hi := st.s.TimeSpan()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(3))
		for pb.Next() {
			x := bounds.MinX + rng.Float64()*0.75*w
			y := bounds.MinY + rng.Float64()*0.75*h
			re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + 0.25*w, MaxY: y + 0.25*h}
			tq := lo + rng.Int63n(hi-lo+1)
			if _, err := st.s.Range(re, tq, 0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
