package ingest

import (
	"math/rand"
	"path/filepath"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/mapmatch"
	"utcq/internal/simplify"
	"utcq/internal/store"
)

// TestIngestSimplifiedMatchesOracle pins the admission-time simplifier's
// place in the pipeline: with SimplifyEps set, the ingester behaves
// exactly like one fed pre-simplified raws — the oracle is the matcher
// over simplify.Trajectory(raw, eps), in acknowledgement order — at
// every generation and across compactions.  (The WAL stores the REDUCED
// points, so recovery never re-simplifies; TestWALRoundTrip and the
// crash matrix cover the log side.)
func TestIngestSimplifiedMatchesOracle(t *testing.T) {
	const eps = 10.0 // below the profile's SigmaGPS (15): matching stays robust
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 24, 57)
	if err != nil {
		t.Fatal(err)
	}
	matcher := mapmatch.New(g, eix, p.Match)
	oracle := matchAll(matcher, raws[:6])
	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = 2
	opts.Index = testIndexOpts
	st, err := store.Build(g, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	ing, err := New(st, eix, walPath, Options{
		BatchSize:    4,
		Match:        p.Match,
		CompactEvery: 3,
		SimplifyEps:  eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	rng := rand.New(rand.NewSource(5))
	next := 6
	for next < len(raws) {
		end := min(next+1+rng.Intn(5), len(raws))
		for _, raw := range raws[next:end] {
			if _, err := ing.Submit(raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, raw := range raws[next:end] {
			red := simplify.Trajectory(raw, eps)
			if u, err := matcher.Match(red); err == nil {
				oracle = append(oracle, u)
			}
		}
		next = end
		if rng.Intn(3) == 0 {
			if _, err := ing.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		checkOracle(t, g, p.Ts, oracle, st, rng)
	}

	stats := ing.Stats()
	if stats.SimplifyEps != eps {
		t.Fatalf("stats report eps %v, want %v", stats.SimplifyEps, eps)
	}
	if stats.PointsIn <= stats.PointsKept || stats.PointsKept <= 0 {
		t.Fatalf("simplification dropped nothing: in=%d kept=%d", stats.PointsIn, stats.PointsKept)
	}
}
