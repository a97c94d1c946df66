package core

import (
	"fmt"
	"slices"
	"testing"

	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/traj"
)

// readRecordRecovered fully decodes trajectory j and walks every instance
// with an InstReader (all of E/T' through Next, all points through NextD).
// Errors are fine; it returns the recovered panic value, or nil.
func readRecordRecovered(a *Archive, j int) (panicked any) {
	defer func() { panicked = recover() }()
	_, _ = a.DecodeTrajectory(j)
	var c InstReader
	rec := a.Trajs[j]
	for orig := range rec.Insts {
		if c.Reset(a, j, orig) != nil {
			continue
		}
		for !c.Done() {
			if _, _, err := c.Next(); err != nil {
				break
			}
		}
		for k := 0; k < rec.NumPoints; k++ {
			if _, err := c.NextD(); err != nil {
				break
			}
		}
	}
	return nil
}

// TestCorruptRecordNeverPanics flips every bit of every record, one at a
// time, and requires full decode and a full reader walk to return (an
// error or wrong data) instead of panicking: a damaged archive must not
// take a process down.
func TestCorruptRecordNeverPanics(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, base := range gen.Profiles() {
		p := base
		p.Network.Cols, p.Network.Rows = 20, 20
		ds, err := gen.Build(p, 25, 99)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCompressor(ds.Graph, DefaultOptions(p.Ts))
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Compress(ds.Trajectories)
		if err != nil {
			t.Fatal(err)
		}
		flips, panics := 0, 0
		var first string
		for j, rec := range a.Trajs {
			orig := rec.Bits
			rec.Bits = slices.Clone(orig)
			for b := 0; b < rec.BitLen; b += stride {
				mask := byte(0x80) >> (b % 8)
				rec.Bits[b/8] ^= mask
				if v := readRecordRecovered(a, j); v != nil {
					if panics == 0 {
						first = fmt.Sprintf("trajectory %d bit %d: %v", j, b, v)
					}
					panics++
				}
				rec.Bits[b/8] ^= mask
				flips++
			}
			rec.Bits = orig
		}
		if panics > 0 {
			t.Errorf("%s: %d of %d single-bit flips panic; first: %s", p.Name, panics, flips, first)
		}
	}
}

// TestDecodeRejectsWrongPointCount: a reference whose |E| reads as 0 (one
// flipped bit) sets no T' flag for its points, so full decode must fail
// instead of returning an instance without a path.  Every instance is a
// reference here, so no factor check can catch the damage first.
func TestDecodeRejectsWrongPointCount(t *testing.T) {
	fx := paperfix.MustNew()
	opts := DefaultOptions(paperfix.Ts)
	opts.DisableReferential = true
	c, err := NewCompressor(fx.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	rec := a.Trajs[0]
	start := rec.Insts[0].Start
	r, err := rec.Reader(start)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.readHead(r, start, 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(a.VertexBits); err != nil {
		t.Fatal(err)
	}
	// |E| ≥ 1 is a γ code starting with 0; flipping that bit reads |E| = 0.
	b := r.Pos()
	rec.Bits = slices.Clone(rec.Bits)
	rec.Bits[b/8] ^= byte(0x80) >> (b % 8)
	if _, err := a.DecodeTrajectory(0); err == nil {
		t.Fatal("DecodeTrajectory accepted a reference with |E| = 0")
	}
}

// FuzzDecodeRecord replaces a trajectory's record bytes with arbitrary
// data (seeded with the paper example's record and a generated CD one;
// the instance directory stays intact) and requires DecodeTrajectory and
// a full InstReader walk of every instance to return without panicking.
func FuzzDecodeRecord(f *testing.F) {
	fx := paperfix.MustNew()
	pc, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		f.Fatal(err)
	}
	paper, err := pc.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		f.Fatal(err)
	}
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 12, 12
	ds, err := gen.Build(p, 4, 7)
	if err != nil {
		f.Fatal(err)
	}
	cc, err := NewCompressor(ds.Graph, DefaultOptions(p.Ts))
	if err != nil {
		f.Fatal(err)
	}
	cd, err := cc.Compress(ds.Trajectories)
	if err != nil {
		f.Fatal(err)
	}
	archives := []*Archive{paper, cd}
	for i, a := range archives {
		f.Add(uint8(i), slices.Clone(a.Trajs[0].Bits))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		src := archives[int(which)%len(archives)]
		rec := *src.Trajs[0]
		rec.Bits, rec.BitLen = data, 8*len(data)
		a := *src
		a.Trajs = []*TrajRecord{&rec}
		if v := readRecordRecovered(&a, 0); v != nil {
			t.Fatalf("panic: %v", v)
		}
	})
}
