package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/traj"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, fx.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if back.Opts != a.Opts {
		t.Errorf("options: %+v vs %+v", back.Opts, a.Opts)
	}
	if back.VertexBits != a.VertexBits || back.EdgeBits != a.EdgeBits {
		t.Error("bit widths differ")
	}
	want, err := a.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("loaded archive decodes differently")
	}
	// Partial decompression must also work on the loaded archive.
	var ir InstReader
	if err := ir.Reset(back, 0, 0); err != nil { // Tu11 is the reference
		t.Fatal(err)
	}
	var e []uint16
	for !ir.Done() {
		no, _, err := ir.Next()
		if err != nil {
			t.Fatal(err)
		}
		e = append(e, no)
	}
	if !reflect.DeepEqual(e, fx.Tu1.Instances[0].E) {
		t.Errorf("loaded reader E = %v", e)
	}
}

func TestSaveLoadGeneratedDataset(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 16, 16
	ds, err := gen.Build(p, 20, 9)
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
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("loaded archive decodes differently")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	fx := paperfix.MustNew()
	if _, err := Load(bytes.NewReader([]byte("not an archive at all")), fx.Graph); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil), fx.Graph); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated archive: valid prefix, cut payload.
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(cut), fx.Graph); err == nil {
		t.Error("truncated archive accepted")
	}
}

// TestDecodeCorruptedStream flips payload bits and expects errors, not
// panics, from full decompression.
func TestDecodeCorruptedStream(t *testing.T) {
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 64; bit += 3 {
		a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
		if err != nil {
			t.Fatal(err)
		}
		tr := a.Trajs[0]
		if bit >= tr.BitLen {
			break
		}
		tr.Bits[bit/8] ^= 0x80 >> uint(bit%8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit %d: decode panicked: %v", bit, r)
				}
			}()
			// Either an error or a (differently) decoded result is fine;
			// crashes are not.
			_, _ = a.DecodeAll()
		}()
	}
}

// TestSerializeGolden pins the on-disk format: Save must reproduce the
// version-2 digest below bit for bit, and loading the stream back must
// reproduce the archive.
func TestSerializeGolden(t *testing.T) {
	const wantSHA = "9a5966b81a65de6104daaf006c3b3b6320fbf29787e3fcd52d56b3f7f3a95194"
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != wantSHA {
		t.Fatalf("archive digest changed:\n got %s\nwant %s", got, wantSHA)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), fx.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save/load/save round trip is not byte-identical")
	}
}

// TestEscapedT0RoundTrip: a t0 outside one day takes the 62-bit escape, a
// two's-complement field, so every t0 in [MinTimestamp, MaxTimestamp]
// survives Compress → Save → LoadBytes → DecodeTrajectory, and CompressOne
// rejects a t0 past that range instead of wrapping it.
func TestEscapedT0RoundTrip(t *testing.T) {
	fx := paperfix.MustNew()
	c, err := NewCompressor(fx.Graph, DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	shifted := func(t0 int64) *traj.Uncertain {
		u := *fx.Tu1
		u.T = make([]int64, len(fx.Tu1.T))
		for i, ti := range fx.Tu1.T {
			u.T[i] = ti - fx.Tu1.T[0] + t0
		}
		return &u
	}
	for _, t0 := range []int64{-1_000_000, MinTimestamp, MaxTimestamp} {
		u := shifted(t0)
		a, err := c.Compress([]*traj.Uncertain{u})
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadBytes(saveArchive(a), fx.Graph)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.DecodeTrajectory(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.T, u.T) {
			t.Errorf("t0 %d: decoded T = %v, want %v", t0, got.T, u.T)
		}
		cur, err := back.Trajs[0].TimeCursorStart(back.Opts.Ts)
		if err != nil || cur.T() != t0 {
			t.Errorf("t0 %d: time cursor starts at %d (%v)", t0, cur.T(), err)
		}
	}
	for _, t0 := range []int64{MinTimestamp - 1, MaxTimestamp + 1} {
		if _, _, err := c.CompressOne(shifted(t0)); err == nil {
			t.Errorf("t0 %d: CompressOne accepted a timestamp outside the archive's range", t0)
		}
	}
}

// withVersion returns a copy of the archive data with its container
// version field set to v.
func withVersion(data []byte, v uint16) []byte {
	out := slices.Clone(data)
	binary.LittleEndian.PutUint16(out[len(archiveMagic):], v)
	return out
}

// TestArchiveV1Refused: LoadBytes reads container version 2 only, so an
// archive whose version field says 1 (the retired fixed-width directory
// layout) fails with a versioned error instead of being parsed as either
// layout.
func TestArchiveV1Refused(t *testing.T) {
	_, a := compressFixture(t, 1)
	for _, v := range []uint16{1, 3} {
		_, err := LoadBytes(withVersion(saveArchive(a), v), a.Graph)
		want := fmt.Sprintf("unsupported archive version %d", v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: LoadBytes error %v, want one naming %q", v, err, want)
		}
	}
}

// TestLoadBytesRestoresDirectory: after LoadBytes(Save(a)) on every
// paper profile, each trajectory's point count and every instance's
// reference, record start and p (bit for bit) equal what the encoder
// recorded, though the container stores only the starts.
func TestLoadBytesRestoresDirectory(t *testing.T) {
	for _, base := range gen.Profiles() {
		p := base
		p.Network.Cols, p.Network.Rows = 20, 20
		ds, err := gen.Build(p, 30, 17)
		if err != nil {
			t.Fatal(err)
		}
		// The per-profile options of exp.CoreOptionsFor, which imports
		// this package.
		opts := DefaultOptions(p.Ts)
		switch p.Name {
		case "DK":
			opts.NumPivots = 2
		case "HZ":
			opts.EtaP = 1.0 / 2048
		}
		c, err := NewCompressor(ds.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Compress(ds.Trajectories)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadBytes(saveArchive(a), ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) { checkDirectory(t, back, a) })
	}
}

// checkDirectory requires got's point counts and instance directory to
// equal want's, p bit for bit.
func checkDirectory(t *testing.T, got, want *Archive) {
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
			if m.RefOrig != wm.RefOrig || m.Start != wm.Start ||
				math.Float64bits(m.P) != math.Float64bits(wm.P) {
				t.Fatalf("trajectory %d instance %d: %+v, want %+v", j, i, m, wm)
			}
		}
	}
}

// TestLoadBytesAllocsPerTrajectory pins the heap allocations LoadBytes
// makes per trajectory on a fixed CD corpus.
func TestLoadBytesAllocsPerTrajectory(t *testing.T) {
	a := buildCD(t, 40, true)
	data := saveArchive(a)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := LoadBytes(data, a.Graph); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(len(a.Trajs))
	t.Logf("%.2f allocs per trajectory", per)
	const ceiling = 0.5 // measured 0.38; one allocation per record took 1.35, the retired version-1 directory 4.15
	if per > ceiling {
		t.Errorf("LoadBytes makes %.2f allocs per trajectory, want ≤ %v", per, ceiling)
	}
}

// TestLoadBytesRecordsShareOneAllocation pins the contract a store that
// maps archives relies on: LoadBytes allocates every record in one block
// starting at Trajs[0], so a GC cleanup on Trajs[0] runs only once no
// record of the archive is reachable.
func TestLoadBytesRecordsShareOneAllocation(t *testing.T) {
	a, err := LoadBytes(saveArchive(buildCD(t, 40, true)), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := unsafe.Pointer(a.Trajs[0])
	for j, tr := range a.Trajs {
		if unsafe.Pointer(tr) != unsafe.Add(base, uintptr(j)*unsafe.Sizeof(TrajRecord{})) {
			t.Fatalf("record %d is not element %d of the block at Trajs[0]", j, j)
		}
	}
	var freed atomic.Bool
	runtime.AddCleanup(a.Trajs[0], func(f *atomic.Bool) { f.Store(true) }, &freed)
	last := a.Trajs[len(a.Trajs)-1]
	a = nil
	for range 5 {
		runtime.GC()
	}
	if freed.Load() {
		t.Fatal("Trajs[0]'s cleanup ran while another record of its archive was reachable")
	}
	runtime.KeepAlive(last)
	last = nil
	for i := 0; !freed.Load(); i++ {
		if i == 200 {
			t.Fatal("Trajs[0]'s cleanup never ran after every record became unreachable")
		}
		runtime.GC()
		runtime.Gosched()
	}
}

// buildCD compresses n trajectories of a small fixed CD corpus, with or
// without referential encoding.
func buildCD(t testing.TB, n int, referential bool) *Archive {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(p.Ts)
	opts.DisableReferential = !referential
	c, err := NewCompressor(ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
