package ingest

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/mapmatch"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
)

// testIndexOpts keeps index builds fast on the small generated networks.
var testIndexOpts = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}

// matchAll mirrors the ingester's pipeline deterministically: the oracle's
// trajectory set is every raw the matcher accepts, in submission order.
func matchAll(m *mapmatch.Matcher, raws []traj.RawTrajectory) []*traj.Uncertain {
	var out []*traj.Uncertain
	for _, raw := range raws {
		if u, err := m.Match(raw); err == nil {
			out = append(out, u)
		}
	}
	return out
}

// oracleEngine compresses and indexes tus from scratch — the reference
// every store generation must match exactly.
func oracleEngine(t *testing.T, g *roadnet.Graph, ts int64, tus []*traj.Uncertain) *query.Engine {
	t.Helper()
	c, err := core.NewCompressor(g, core.DefaultOptions(ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(tus)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := stiu.Build(a, testIndexOpts)
	if err != nil {
		t.Fatal(err)
	}
	return query.NewEngine(a, ix)
}

// checkOracle drives identical where/when/range workloads through the
// store and the oracle engine and requires exactly equal results.
func checkOracle(t *testing.T, g *roadnet.Graph, ts int64, tus []*traj.Uncertain, s *store.Store, rng *rand.Rand) {
	t.Helper()
	if got, want := s.NumTrajectories(), len(tus); got != want {
		t.Fatalf("generation %d: store holds %d trajectories, oracle %d", s.Generation(), got, want)
	}
	eng := oracleEngine(t, g, ts, tus)
	alphas := []float64{0, 0.15, 0.3}
	b := g.Bounds()
	for trial := 0; trial < 15; trial++ {
		j := rng.Intn(len(tus))
		T := tus[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		alpha := alphas[rng.Intn(len(alphas))]

		want, err := eng.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("generation %d: where(%d, %d, %g): store %v != oracle %v", s.Generation(), j, tq, alpha, got, want)
		}

		if len(want) > 0 {
			loc := want[rng.Intn(len(want))].Loc
			wantW, err := eng.When(j, loc, alpha)
			if err != nil {
				t.Fatal(err)
			}
			gotW, err := s.When(j, loc, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotW, wantW) {
				t.Fatalf("generation %d: when(%d, %v, %g) mismatch", s.Generation(), j, loc, alpha)
			}
		}

		w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
		fw, fh := 0.05+rng.Float64()*0.4, 0.05+rng.Float64()*0.4
		re := roadnet.Rect{MinX: b.MinX + rng.Float64()*(1-fw)*w, MinY: b.MinY + rng.Float64()*(1-fh)*h}
		re.MaxX, re.MaxY = re.MinX+fw*w, re.MinY+fh*h
		wantR, err := eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := s.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if (len(wantR) != 0 || len(gotR) != 0) && !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("generation %d: range(%v, %d, %g): store %v != oracle %v", s.Generation(), re, tq, alpha, gotR, wantR)
		}
	}
}

// TestIngestCompactQueryMatchesOracle is the live-ingestion acceptance
// property: on every dataset profile, an arbitrary interleaving of ingest
// batches, compactions and queries answers — at every manifest
// generation — exactly like a single-archive engine freshly built over
// the same trajectory set (the raws accepted by the same deterministic
// matcher, in acknowledgement order).
func TestIngestCompactQueryMatchesOracle(t *testing.T) {
	for _, p := range []gen.Profile{gen.DK(), gen.CD(), gen.HZ()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p.Network.Cols, p.Network.Rows = 24, 24
			g, eix, raws, err := gen.Raws(p, 30, 17)
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
			ing, err := New(st, eix, filepath.Join(t.TempDir(), "ingest.wal"), Options{
				BatchSize:    4,
				Match:        p.Match,
				Parallelism:  2,
				CompactEvery: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ing.Close()

			rng := rand.New(rand.NewSource(p.Ts))
			next := 6
			for next < len(raws) {
				k := 1 + rng.Intn(6)
				end := min(next+k, len(raws))
				for _, raw := range raws[next:end] {
					if _, err := ing.Submit(raw); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := ing.Flush(); err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, matchAll(matcher, raws[next:end])...)
				next = end
				if rng.Intn(3) == 0 {
					if _, err := ing.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				checkOracle(t, g, p.Ts, oracle, st, rng)
			}

			st1 := ing.Stats()
			if st1.Acked != uint64(len(raws)-6) || st1.Pending != 0 || st1.Applied != st1.Acked {
				t.Fatalf("final ingest stats: %+v", st1)
			}
			if int(st1.Matched)+int(st1.Dropped) != len(raws)-6 {
				t.Fatalf("matched %d + dropped %d != %d submitted", st1.Matched, st1.Dropped, len(raws)-6)
			}
		})
	}
}

// TestIngestCrashRecovery simulates the full crash story: acknowledged
// records that were never applied survive in the WAL (plus a torn tail
// from the append in flight), a fresh process replays them into the
// reopened store, and the result matches the oracle over everything ever
// acknowledged.
func TestIngestCrashRecovery(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 16, 23)
	if err != nil {
		t.Fatal(err)
	}
	matcher := mapmatch.New(g, eix, p.Match)
	base := matchAll(matcher, raws[:4])

	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = 2
	opts.Index = testIndexOpts
	st, err := store.Build(g, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	if err := st.Save(storeDir); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	ing, err := New(st, eix, walPath, Options{BatchSize: 3, Match: p.Match})
	if err != nil {
		t.Fatal(err)
	}
	// Applied half...
	for _, raw := range raws[4:10] {
		if _, err := ing.Submit(raw); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...acknowledged-but-unapplied half: synced to the WAL, then the
	// process "crashes" (no Close, no Flush).
	for _, raw := range raws[10:16] {
		if _, err := ing.Submit(raw); err != nil {
			t.Fatal(err)
		}
	}
	// The crash interrupts an append mid-frame: a torn tail.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2c, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A fresh process: reopen the store from disk and re-attach the WAL.
	st2, err := store.Open(storeDir, g, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.WALApplied() != 6 {
		t.Fatalf("reopened store applied %d WAL records, want 6", st2.WALApplied())
	}
	ing2, err := New(st2, eix, walPath, Options{BatchSize: 3, Match: p.Match})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if got := ing2.Pending(); got != 6 {
		t.Fatalf("recovery queued %d records, want 6 (acknowledged but unapplied)", got)
	}
	if _, err := ing2.Flush(); err != nil {
		t.Fatal(err)
	}

	oracle := append(append([]*traj.Uncertain(nil), base...), matchAll(matcher, raws[4:16])...)
	rng := rand.New(rand.NewSource(99))
	checkOracle(t, g, p.Ts, oracle, st2, rng)

	// And the recovered store compacts cleanly; compaction against a
	// durable store checkpoints the WAL down to its header (everything is
	// applied), while the acknowledged-record count survives.
	if _, err := ing2.Compact(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, g, p.Ts, oracle, st2, rng)
	is := ing2.Stats()
	if is.WALBytes != walHeaderSize {
		t.Fatalf("WAL not checkpointed after compaction: %d bytes, want %d", is.WALBytes, walHeaderSize)
	}
	if is.Acked != 12 || is.Applied != 12 {
		t.Fatalf("sequence accounting lost by checkpoint: %+v", is)
	}
}

// TestIngesterBackgroundDrain exercises Start/Close: submissions drain
// without explicit Flush calls.
func TestIngesterBackgroundDrain(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 10, 31)
	if err != nil {
		t.Fatal(err)
	}
	matcher := mapmatch.New(g, eix, p.Match)
	base := matchAll(matcher, raws[:2])
	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = 1
	opts.Index = testIndexOpts
	st, err := store.Build(g, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := New(st, eix, filepath.Join(t.TempDir(), "ingest.wal"), Options{
		BatchSize:  2, // full batches wake the worker immediately
		FlushEvery: 50 * time.Millisecond,
		Match:      p.Match,
	})
	if err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, raw := range raws[2:] {
		if _, err := ing.Submit(raw); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ing.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := ing.Pending(); got != 0 {
		t.Fatalf("background worker left %d records pending", got)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	oracle := append(base, matchAll(matcher, raws[2:])...)
	checkOracle(t, g, p.Ts, oracle, st, rand.New(rand.NewSource(7)))
}

// TestValidateRawRejectsUnstorableTimestamps: a submission whose
// timestamps leave the archive's range must be refused before it is
// acknowledged; accepted, it would fail compression at drain time and
// block the queue behind it.
func TestValidateRawRejectsUnstorableTimestamps(t *testing.T) {
	raw := func(t0 int64) traj.RawTrajectory {
		return traj.RawTrajectory{Points: []traj.RawPoint{{T: t0}, {X: 10, T: t0 + 30}}}
	}
	for _, t0 := range []int64{core.MaxTimestamp + 1, core.MaxTimestamp - 10, core.MinTimestamp - 1} {
		if err := ValidateRaw(raw(t0)); !errors.Is(err, ErrRejected) {
			t.Errorf("t0 %d: ValidateRaw = %v, want ErrRejected", t0, err)
		}
	}
	for _, t0 := range []int64{core.MinTimestamp, -1_000_000, core.MaxTimestamp - 30} {
		if err := ValidateRaw(raw(t0)); err != nil {
			t.Errorf("t0 %d: ValidateRaw = %v, want nil", t0, err)
		}
	}
}
