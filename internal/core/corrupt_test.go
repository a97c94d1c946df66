package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"utcq/internal/bitio"
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
	if _, err := a.expectHead(r, start, 0, true); err != nil {
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

// containerHeaderLen is the byte length of a container's fixed header,
// magic through numTrajs.
const containerHeaderLen = 41

// craftHead is one instance head of a crafted record.
type craftHead struct {
	orig, refPos int
	ref          bool
}

// craftArchive returns a one-trajectory version-2 archive in a's header
// whose record is the paper example's time section followed by heads
// only, listed in the directory at their own starts.
func craftArchive(a *Archive, heads ...craftHead) []byte {
	w := bitio.NewWriter(64)
	encodeT(w, paperfix.MustNew().Tu1.T, a.Opts.Ts)
	var starts []uint64
	prev := 0
	for _, h := range heads {
		starts = append(starts, uint64(w.Len()-prev))
		prev = w.Len()
		w.WriteCount(h.orig)
		w.WriteBool(h.ref)
		a.PCodec.Encode(w, 0.5)
		if !h.ref {
			w.WriteCount(h.refPos)
		}
	}
	return withDirectory(saveArchive(a), w.Len(), starts, w.Bytes())
}

// withDirectory returns base's one-trajectory header followed by a
// trajectory with the given bit length, start deltas and payload.
func withDirectory(base []byte, bitLen int, starts []uint64, payload []byte) []byte {
	out := slices.Clone(base[:containerHeaderLen])
	out = binary.AppendUvarint(out, uint64(bitLen))
	out = binary.AppendUvarint(out, uint64(len(starts)))
	for _, d := range starts {
		out = binary.AppendUvarint(out, d)
	}
	return append(out, payload...)
}

func saveArchive(a *Archive) []byte {
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// badDirectories returns one-trajectory archives whose directory
// disagrees with the record heads, each of which LoadBytes must refuse.
func badDirectories(t testing.TB) map[string][]byte {
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	rec := a.Trajs[0]
	// Tu11 is the reference and the first record; Tu12 and Tu13 follow.
	s := []uint64{uint64(rec.Insts[0].Start), uint64(rec.Insts[1].Start - rec.Insts[0].Start),
		uint64(rec.Insts[2].Start - rec.Insts[1].Start)}
	payload := rec.Bits[:(rec.BitLen+7)/8]
	v2 := withDirectory(saveArchive(a), rec.BitLen, s, payload)
	dir := len(v2) - len(payload)
	return map[string][]byte{
		"truncated start list":   v2[:dir-2],
		"start past bit length":  withDirectory(v2, rec.BitLen, []uint64{s[0], s[1], uint64(rec.BitLen)}, payload),
		"repeated start":         withDirectory(v2, rec.BitLen, []uint64{s[0], s[1], 0}, payload),
		"start inside time":      withDirectory(v2, rec.BitLen, []uint64{1, s[0] + s[1] - 1, s[2]}, payload),
		"unlisted instance":      withDirectory(v2, rec.BitLen, []uint64{s[0], s[1] + s[2]}, payload),
		"refPos past references": craftArchive(a, craftHead{orig: 0, ref: true}, craftHead{orig: 1, refPos: 1}),
		"repeated orig":          craftArchive(a, craftHead{orig: 0, ref: true}, craftHead{orig: 0}),
		"orig past count":        craftArchive(a, craftHead{orig: 0, ref: true}, craftHead{orig: 2}),
		"reference after nonref": craftArchive(a, craftHead{orig: 0, ref: true}, craftHead{orig: 1}, craftHead{orig: 2, ref: true}),
	}
}

// TestLoadBytesRejectsBadDirectory: a start list or record head that
// contradicts the stream is a load error, not a directory that a later
// read trips over.
func TestLoadBytesRejectsBadDirectory(t *testing.T) {
	fx := paperfix.MustNew()
	for name, data := range badDirectories(t) {
		if _, err := LoadBytes(data, fx.Graph); err == nil {
			t.Errorf("%s: LoadBytes accepted the archive", name)
		}
	}
	// The crafted heads themselves are well formed.
	_, a := compressFixture(t, 1)
	good := craftArchive(a, craftHead{orig: 0, ref: true}, craftHead{orig: 2, ref: true}, craftHead{orig: 1, refPos: 1})
	back, err := LoadBytes(good, fx.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Trajs[0].Insts[1]; got.RefOrig != 2 {
		t.Errorf("crafted non-reference loads as %+v, want reference 2", got)
	}
}

// FuzzArchiveLoad feeds LoadBytes arbitrary containers, seeded with
// archives of the paper example and of a generated CD corpus (one of them
// written without referential encoding), the paper example's archive
// relabelled to the retired version 1, and directories that contradict
// their streams, and requires it and one InstReader walk per instance of
// what it accepts to return without panicking.
func FuzzArchiveLoad(f *testing.F) {
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		f.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saveArchive(a))
	f.Add(withVersion(saveArchive(a), 1))
	f.Add(saveArchive(buildCD(f, 25, true)))
	f.Add(saveArchive(buildCD(f, 25, false)))
	for _, data := range badDirectories(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a *Archive
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("LoadBytes panicked: %v", v)
				}
			}()
			a, _ = LoadBytes(data, fx.Graph)
		}()
		if a == nil {
			return
		}
		for j := range a.Trajs {
			if v := readRecordRecovered(a, j); v != nil {
				t.Fatalf("trajectory %d: panic: %v", j, v)
			}
		}
	})
}
