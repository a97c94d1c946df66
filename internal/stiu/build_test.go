package stiu

import (
	"slices"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
)

// compressCD compresses n generated CD trajectories on a 20×20 network.
func compressCD(t *testing.T, n int, seed int64) *core.Archive {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
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
	return a
}

// withFlippedBit returns a one-trajectory archive holding trajectory j of
// a with record bit b flipped (a itself is left untouched).
func withFlippedBit(a *core.Archive, j, b int) *core.Archive {
	rec := *a.Trajs[j]
	rec.Bits = slices.Clone(rec.Bits)
	rec.Bits[b/8] ^= byte(0x80) >> (b % 8)
	out := *a
	out.Trajs = []*core.TrajRecord{&rec}
	return &out
}

// buildRecovered runs a serial Build (so a panic stays on this goroutine)
// and returns its error and any recovered panic value.
func buildRecovered(a *core.Archive) (err error, panicked any) {
	defer func() { panicked = recover() }()
	_, err = Build(a, Options{GridNX: 16, GridNY: 16, IntervalDur: 1800, Parallelism: 1})
	return err, nil
}

// TestBuildCorruptRecordIsAnError: a reference whose |E| reads as 0 (one
// flipped bit) describes no point at all, so Build must refuse the record
// with an error, and no single flipped bit of any record may panic a
// build (a panicking worker would take the whole process down).
func TestBuildCorruptRecordIsAnError(t *testing.T) {
	a := compressCD(t, 8, 5)
	rec := a.Trajs[0]
	ref := slices.IndexFunc(rec.Insts, func(m core.InstMeta) bool { return m.RefOrig < 0 })
	r, err := rec.Reader(rec.Insts[ref].Start)
	if err != nil {
		t.Fatal(err)
	}
	// Skip the head ([orig γ][isRef][p]) and SV: |E| is the next γ code,
	// whose first bit is 0 for any |E| ≥ 1; flipping it to 1 reads |E| = 0.
	if _, err := r.ReadCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBool(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PCodec.Decode(r); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(a.VertexBits); err != nil {
		t.Fatal(err)
	}
	bad := withFlippedBit(a, 0, r.Pos())
	if err, v := buildRecovered(bad); v != nil || err == nil {
		t.Fatalf("Build on a reference with |E| = 0: err %v, panic %v; want an error", err, v)
	}

	for j, rec := range a.Trajs {
		for b := 0; b < rec.BitLen; b++ {
			if _, v := buildRecovered(withFlippedBit(a, j, b)); v != nil {
				t.Fatalf("trajectory %d bit %d: Build panics: %v", j, b, v)
			}
		}
	}
}

// TestBuildAllocsPerTrajectory pins the heap allocations a serial Build
// makes per trajectory on a fixed CD corpus.
func TestBuildAllocsPerTrajectory(t *testing.T) {
	a := compressCD(t, 40, 9)
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800, Parallelism: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(a, opts); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(len(a.Trajs))
	t.Logf("%.1f allocs per trajectory", per)
	const ceiling = 95 // measured 86.8; a fresh slice per edge's regions took 154.7
	if per > ceiling {
		t.Errorf("Build makes %.1f allocs per trajectory, want ≤ %v", per, ceiling)
	}
}
