// Benchmarks regenerating every table and figure of the paper's evaluation
// (run `go test -bench=. -benchmem`), plus the ablation benches DESIGN.md
// calls out.  The experiment harness prints full paper-style rows via
// `go run ./cmd/experiments -exp all`; these benches wrap the same code so
// `go test -bench` exercises each experiment and reports its cost.
package utcq_test

import (
	"fmt"
	"io"
	"testing"

	"utcq"
	"utcq/internal/core"
	"utcq/internal/exp"
	"utcq/internal/gen"
	"utcq/internal/query"
	"utcq/internal/stiu"
	"utcq/internal/ted"
)

// benchCfg keeps the bench datasets small enough for -bench=. sweeps.
// Parallelism 1 pins the paper benches to the serial measurement model;
// the parallel-scaling benches below override it per sub-benchmark.
var benchCfg = exp.Config{Scale: 0.25, Seed: 42, Parallelism: 1}

func benchBundles(b *testing.B) []*exp.Bundle {
	b.Helper()
	bundles, err := exp.Datasets(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	return bundles
}

func bundleByName(b *testing.B, name string) *exp.Bundle {
	for _, bu := range benchBundles(b) {
		if bu.Profile.Name == name {
			return bu
		}
	}
	b.Fatalf("no bundle %s", name)
	return nil
}

// --- Table 8: compression --------------------------------------------------

func benchCompressUTCQ(b *testing.B, name string) {
	bu := bundleByName(b, name)
	c, err := core.NewCompressor(bu.DS.Graph, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := c.Compress(bu.DS.Trajectories)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Stats.TotalRatio(), "ratio")
	}
}

func benchCompressTED(b *testing.B, name string) {
	bu := bundleByName(b, name)
	c, err := ted.NewCompressor(bu.DS.Graph, exp.TEDOptionsFor(bu.Profile, bu.Opts))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := c.Compress(bu.DS.Trajectories)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Stats.TotalRatio(), "ratio")
	}
}

func BenchmarkCompressUTCQ_DK(b *testing.B) { benchCompressUTCQ(b, "DK") }
func BenchmarkCompressUTCQ_CD(b *testing.B) { benchCompressUTCQ(b, "CD") }
func BenchmarkCompressUTCQ_HZ(b *testing.B) { benchCompressUTCQ(b, "HZ") }
func BenchmarkCompressTED_DK(b *testing.B)  { benchCompressTED(b, "DK") }
func BenchmarkCompressTED_CD(b *testing.B)  { benchCompressTED(b, "CD") }
func BenchmarkCompressTED_HZ(b *testing.B)  { benchCompressTED(b, "HZ") }

// BenchmarkDecompress measures full decompression (the inverse path).
func BenchmarkDecompress(b *testing.B) {
	bu := bundleByName(b, "CD")
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.DecodeAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6-8, 12: parameter sweeps --------------------------------------

func BenchmarkFig6Instances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Length(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Pivots(b *testing.B) {
	bundles := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig8(io.Discard, bundles)
	}
}

func BenchmarkFig12Scalability(b *testing.B) {
	bundles := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig12Compression(io.Discard, bundles)
	}
}

// --- Figures 9-10: queries ---------------------------------------------------

func queryEngine(b *testing.B, name string) (*exp.Bundle, *query.Engine, *query.TEDEngine) {
	bu := bundleByName(b, name)
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := stiu.Build(arch, stiu.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := query.NewEngine(arch, ix)

	tc, err := ted.NewCompressor(bu.DS.Graph, exp.TEDOptionsFor(bu.Profile, bu.Opts))
	if err != nil {
		b.Fatal(err)
	}
	ta, err := tc.Compress(bu.DS.Trajectories)
	if err != nil {
		b.Fatal(err)
	}
	tix, err := query.BuildTEDIndex(ta, stiu.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	teng := query.NewTEDEngine(ta, tix)
	teng.DisableCache = true
	return bu, eng, teng
}

func BenchmarkWhereQueryUTCQ(b *testing.B) {
	bu, eng, _ := queryEngine(b, "HZ")
	u := bu.DS.Trajectories[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
		if _, err := eng.Where(0, tq, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhereQueryTED(b *testing.B) {
	bu, _, teng := queryEngine(b, "HZ")
	u := bu.DS.Trajectories[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
		if _, err := teng.Where(0, tq, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhenQueryUTCQ(b *testing.B) {
	bu, eng, _ := queryEngine(b, "HZ")
	path, err := bu.DS.Trajectories[0].Instances[0].PathEdges(bu.DS.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := bu.DS.Graph.PositionAtRD(path[i%len(path)], 0.5)
		if _, err := eng.When(0, loc, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhenQueryTED(b *testing.B) {
	bu, _, teng := queryEngine(b, "HZ")
	path, err := bu.DS.Trajectories[0].Instances[0].PathEdges(bu.DS.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := bu.DS.Graph.PositionAtRD(path[i%len(path)], 0.5)
		if _, err := teng.When(0, loc, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// rangeRect derives query rectangle i from precomputed network bounds.
// Bounds() scans every vertex, so callers hoist it out of the timed loop —
// the benchmark measures the query, not the bounds scan.
func rangeRect(bounds utcq.Rect, i int) utcq.Rect {
	w := (bounds.MaxX - bounds.MinX) * 0.08
	x := bounds.MinX + float64(i%13)/13*(bounds.MaxX-bounds.MinX-w)
	y := bounds.MinY + float64(i%7)/7*(bounds.MaxY-bounds.MinY-w)
	return utcq.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
}

func BenchmarkRangeQueryUTCQ(b *testing.B) {
	bu, eng, _ := queryEngine(b, "CD")
	u := bu.DS.Trajectories[0]
	bounds := bu.DS.Graph.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
		if _, err := eng.Range(rangeRect(bounds, i), tq, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQueryTED(b *testing.B) {
	bu, _, teng := queryEngine(b, "CD")
	u := bu.DS.Trajectories[0]
	bounds := bu.DS.Graph.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
		if _, err := teng.Range(rangeRect(bounds, i), tq, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblationNoReferential isolates the gain of the referential
// representation: every instance stored as a standalone reference.
func BenchmarkAblationNoReferential(b *testing.B) {
	bu := bundleByName(b, "HZ")
	opts := bu.Opts
	opts.DisableReferential = true
	c, err := core.NewCompressor(bu.DS.Graph, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := c.Compress(bu.DS.Trajectories)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Stats.TotalRatio(), "ratio")
	}
}

// BenchmarkAblationJaccard replaces FJD with the plain Jaccard similarity.
func BenchmarkAblationJaccard(b *testing.B) {
	bu := bundleByName(b, "HZ")
	opts := bu.Opts
	opts.PlainJaccard = true
	c, err := core.NewCompressor(bu.DS.Graph, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := c.Compress(bu.DS.Trajectories)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Stats.TotalRatio(), "ratio")
	}
}

// BenchmarkAblationNoPruning runs range queries with Lemmas 1-4 disabled.
func BenchmarkAblationNoPruning(b *testing.B) {
	bu, eng, _ := queryEngine(b, "CD")
	eng.DisablePruning = true
	u := bu.DS.Trajectories[0]
	bounds := bu.DS.Graph.Bounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
		if _, err := eng.Range(rangeRect(bounds, i), tq, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeEncoding compares SIAR + improved Exp-Golomb against TED's
// pair scheme on the time component alone (the Section 4.1 motivation).
func BenchmarkTimeEncoding(b *testing.B) {
	bu := bundleByName(b, "HZ")
	b.Run("SIAR", func(b *testing.B) {
		c, err := core.NewCompressor(bu.DS.Graph, bu.Opts)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			a, err := c.Compress(bu.DS.Trajectories)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(a.Stats.RatioT(), "T-ratio")
		}
	})
	b.Run("TEDPairs", func(b *testing.B) {
		c, err := ted.NewCompressor(bu.DS.Graph, exp.TEDOptionsFor(bu.Profile, bu.Opts))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			a, err := c.Compress(bu.DS.Trajectories)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(a.Stats.RatioT(), "T-ratio")
		}
	})
}

// --- Parallel scaling ---------------------------------------------------------

// BenchmarkCompressParallel sweeps the Parallelism knob on the CD profile:
// p1 is the serial baseline, pN uses N workers (output is byte-identical).
func BenchmarkCompressParallel(b *testing.B) {
	bu := bundleByName(b, "CD")
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			opts := bu.Opts
			opts.Parallelism = p
			c, err := core.NewCompressor(bu.DS.Graph, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(bu.DS.Trajectories); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressParallel sweeps Parallelism on full decompression.
func BenchmarkDecompressParallel(b *testing.B) {
	bu := bundleByName(b, "CD")
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			arch.Opts.Parallelism = p
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arch.DecodeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStIUBuildParallel sweeps Parallelism on index construction.
func BenchmarkStIUBuildParallel(b *testing.B) {
	bu := bundleByName(b, "CD")
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			opts := stiu.DefaultOptions()
			opts.Parallelism = p
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stiu.Build(arch, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineConcurrent drives one shared engine from GOMAXPROCS
// goroutines mixing where, when and range queries — the serving-path
// throughput benchmark (run with -cpu 1,2,4,8 to see scaling).
func BenchmarkEngineConcurrent(b *testing.B) {
	bu := bundleByName(b, "CD")
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := stiu.Build(arch, stiu.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := query.NewEngine(arch, ix)
	bounds := bu.DS.Graph.Bounds()
	paths := make([][]utcq.EdgeID, len(bu.DS.Trajectories))
	for j, u := range bu.DS.Trajectories {
		p, err := u.Instances[0].PathEdges(bu.DS.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if len(p) == 0 {
			b.Fatalf("trajectory %d has an empty edge path", j)
		}
		paths[j] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			j := i % len(bu.DS.Trajectories)
			u := bu.DS.Trajectories[j]
			tq := u.T[0] + int64(i)%(u.T[len(u.T)-1]-u.T[0])
			switch i % 3 {
			case 0:
				if _, err := eng.Where(j, tq, 0.25); err != nil {
					b.Fatal(err)
				}
			case 1:
				loc := bu.DS.Graph.PositionAtRD(paths[j][i%len(paths[j])], 0.5)
				if _, err := eng.When(j, loc, 0.25); err != nil {
					b.Fatal(err)
				}
			default:
				if _, err := eng.Range(rangeRect(bounds, i), tq, 0.5); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

// --- Dataset generation -------------------------------------------------------

func BenchmarkDatasetGeneration(b *testing.B) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 32, 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Build(p, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStIUBuild measures index construction.
func BenchmarkStIUBuild(b *testing.B) {
	bu := bundleByName(b, "CD")
	arch, err := utcq.Compress(bu.DS.Graph, bu.DS.Trajectories, bu.Opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stiu.Build(arch, stiu.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
