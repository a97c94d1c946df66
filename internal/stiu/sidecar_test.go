package stiu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
)

func buildGeneratedIndex(t *testing.T, opts Options) (*core.Archive, *Index) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 40, 11)
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
	ix, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, ix
}

// requireSameIndex compares the query-visible state of two indexes
// through the accessors: temporal entries, interval candidate sets and
// every (interval, region) bucket.
func requireSameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if len(want.Temporal) != len(got.Temporal) || len(want.Intervals) != len(got.Intervals) {
		t.Fatalf("shape differs: %d/%d trajectories, %d/%d intervals",
			len(got.Temporal), len(want.Temporal), len(got.Intervals), len(want.Intervals))
	}
	cells := roadnet.RegionID(want.Opts.GridNX * want.Opts.GridNY)
	same := func(what string, w, g any, werr, gerr error) {
		t.Helper()
		if werr != nil || gerr != nil {
			t.Fatalf("%s: %v / %v", what, werr, gerr)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s differs", what)
		}
	}
	for j := range want.Temporal {
		w, werr := want.TemporalEntries(j)
		g, gerr := got.TemporalEntries(j)
		same(fmt.Sprintf("temporal[%d]", j), w, g, werr, gerr)
	}
	for id := range want.Intervals {
		if got.Intervals[id] == nil {
			t.Fatalf("interval %d missing after decode", id)
		}
		w, werr := want.Candidates(id)
		g, gerr := got.Candidates(id)
		same(fmt.Sprintf("interval %d candidates", id), w, g, werr, gerr)
		for re := roadnet.RegionID(0); re < cells; re++ {
			w, werr := want.Buckets(id, re)
			g, gerr := got.Buckets(id, re)
			same(fmt.Sprintf("bucket (%d,%d)", id, re), w, g, werr, gerr)
		}
	}
}

// touchAll drives every accessor over every section of ix, ignoring
// errors: hostile layouts must surface as errors, never as panics.
func touchAll(ix *Index) {
	for j := range ix.Temporal {
		_, _ = ix.TemporalEntries(j)
	}
	for id := range ix.Intervals {
		_, _ = ix.Candidates(id)
	}
	_ = ix.SpatialSizeBits(8)
	_ = ix.Bounds()
}

func TestSidecarRoundTrip(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	const archiveSize = 123456
	enc, err := ix.EncodeSidecar(archiveSize)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), archiveSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameIndex(t, ix, dec)

	// A decoded index re-encodes byte-identically (it returns its buffer).
	enc2, err := dec.EncodeSidecar(archiveSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding a decoded sidecar is not byte-stable")
	}
	// Encoding the built index twice is deterministic.
	enc3, err := ix.EncodeSidecar(archiveSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc3) {
		t.Fatal("encoding is nondeterministic")
	}
}

func TestSidecarLazyAccess(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Point lookups decode each occupied bucket on demand, exactly once,
	// and agree with the built index, which decodes nothing.
	occupied := int64(0)
	for pass := 0; pass < 2; pass++ {
		for id := range ix.Intervals {
			for re := roadnet.RegionID(0); int(re) < opts.GridNX*opts.GridNY; re++ {
				want, err := ix.Buckets(id, re)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.Buckets(id, re)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("bucket (%d,%d) differs", id, re)
				}
				if pass == 0 && got != nil {
					occupied++
				}
			}
		}
	}
	if occupied == 0 {
		t.Fatal("no occupied bucket in the fixture")
	}
	if got := dec.Stats().RegionBlocksDecoded; got != occupied {
		t.Fatalf("decoded %d buckets over two passes, want %d (once each)", got, occupied)
	}
	if got := ix.Stats().RegionBlocksDecoded; got != 0 {
		t.Fatalf("built index decoded %d buckets, want 0", got)
	}
}

func TestSidecarRejectsMismatch(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(999)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (*Index, error)
	}{
		{"wrong archive size", func() (*Index, error) {
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 1000, opts)
		}},
		{"wrong traj count", func() (*Index, error) {
			return DecodeSidecar(enc, a.Graph, len(a.Trajs)+1, 999, opts)
		}},
		{"wrong grid", func() (*Index, error) {
			o := opts
			o.GridNX = 8
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 999, o)
		}},
		{"wrong interval duration", func() (*Index, error) {
			o := opts
			o.IntervalDur = 900
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 999, o)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

// TestSidecarCorruptionIsAnError truncates and bit-flips the encoding at
// every offset: decode (plus a walk of every accessor when decode
// succeeds) must return an error or a different index, never panic.
func TestSidecarCorruptionIsAnError(t *testing.T) {
	opts := Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(7)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeSidecar(enc[:cut], a.Graph, len(a.Trajs), 7, opts); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for off := 0; off < len(enc); off += 11 {
		mut := bytes.Clone(enc)
		mut[off] ^= 0x40
		dec, err := DecodeSidecar(mut, a.Graph, len(a.Trajs), 7, opts)
		if err != nil {
			continue
		}
		touchAll(dec) // must not panic; errors are acceptable
	}
}

func TestEFSetRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3, 4},
		{0, 100},
		{3, 17, 17 + 64, 1000, 4095, 4096, 1 << 20},
	}
	for _, vals := range cases {
		enc := appendEFSet(nil, vals)
		r := &sidecarReader{data: enc}
		got, err := r.efSet(1 << 21)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if r.remaining() != 0 {
			t.Fatalf("%v: %d trailing bytes", vals, r.remaining())
		}
		if len(vals) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(vals, got) {
			t.Fatalf("round trip %v -> %v", vals, got)
		}
	}
}

// TestDecodeBucketRejectsOverflow: a bucket whose ref orig or non-reference
// count does not fit an int32 is corrupt, not truncated to a wrong value.
func TestDecodeBucketRejectsOverflow(t *testing.T) {
	ok := appendBucket(nil, &RegionBucket{Refs: []RefTuple{{Traj: 3, Orig: math.MaxInt32, Enters: true}}, NonRefs: math.MaxInt32})
	if b, err := decodeBucket(ok); err != nil || b.Refs[0].Orig != math.MaxInt32 || !b.Refs[0].Enters || b.NonRefs != math.MaxInt32 {
		t.Fatalf("largest fields: %+v, %v", b, err)
	}
	// One ref tuple (traj 3, orig 2³¹, enters) and no non-references.
	ref := binary.AppendUvarint(nil, 1)
	ref = binary.AppendVarint(ref, 3)
	ref = binary.AppendUvarint(ref, (math.MaxInt32+1)<<1|1)
	ref = append(ref, make([]byte, 8)...) // pTotal, pMax
	ref = binary.AppendUvarint(ref, 0)
	// No ref tuples and 2³¹ non-references.
	count := binary.AppendUvarint(binary.AppendUvarint(nil, 0), math.MaxInt32+1)
	for name, data := range map[string][]byte{"orig": ref, "nonref count": count} {
		if _, err := decodeBucket(data); err == nil || !strings.Contains(err.Error(), "overflows int32") {
			t.Errorf("%s past int32: err = %v", name, err)
		}
	}
}

// retiredVersions are the sidecar versions readers no longer accept.
var retiredVersions = []uint16{1, 2, 3}

// relabelledSidecar returns an index's sidecar with its header relabelled
// as version v.
func relabelledSidecar(t *testing.T, ix *Index, archiveSize int64, v uint16) []byte {
	t.Helper()
	enc, err := ix.EncodeSidecar(archiveSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint16(enc[4:]); got != sidecarVersion {
		t.Fatalf("encoder writes version %d, want %d", got, sidecarVersion)
	}
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint16(out[4:], v)
	return out
}

// TestSidecarV1RoundTrip pins the version policy: the encoder writes
// version 4, and a version-1, -2 or -3 sidecar no longer round-trips — it
// fails DecodeSidecar with a versioned error, so a store rebuilds the
// index from its archive instead.
func TestSidecarV1RoundTrip(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	const archiveSize = 123456
	for _, v := range retiredVersions {
		old := relabelledSidecar(t, ix, archiveSize, v)
		_, err := DecodeSidecar(old, a.Graph, len(a.Trajs), archiveSize, opts)
		if want := fmt.Sprintf("unsupported sidecar version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d sidecar: err = %v, want %s", v, err, want)
		}
	}
}

// TestSidecarV1CorruptionIsAnError truncates and bit-flips a version-1,
// -2 and -3 sidecar at every offset: each variant must fail
// DecodeSidecar, never decode and never panic.
func TestSidecarV1CorruptionIsAnError(t *testing.T) {
	opts := Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	for _, v := range retiredVersions {
		old := relabelledSidecar(t, ix, 7, v)
		want := fmt.Sprintf("unsupported sidecar version %d", v)
		for cut := 0; cut <= len(old); cut += 7 {
			if _, err := DecodeSidecar(old[:cut], a.Graph, len(a.Trajs), 7, opts); err == nil {
				t.Fatalf("v%d sidecar cut at %d decoded", v, cut)
			}
		}
		for cut := sidecarHdrLen; cut <= len(old); cut += 7 {
			_, err := DecodeSidecar(old[:cut], a.Graph, len(a.Trajs), 7, opts)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d sidecar cut at %d: err = %v, want %s", v, cut, err, want)
			}
		}
		for off := 0; off < len(old); off += 11 {
			mut := bytes.Clone(old)
			mut[off] ^= 0x40
			if _, err := DecodeSidecar(mut, a.Graph, len(a.Trajs), 7, opts); err == nil {
				t.Fatalf("v%d sidecar with byte %d flipped decoded", v, off)
			}
		}
	}
}

// TestSidecarSectionBytes pins the per-section split of IndexStats: the
// temporal and interval spans are each nonempty and add up to the
// sidecar minus its header, for built and decoded indexes.
func TestSidecarSectionBytes(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]IndexStats{"built": ix.Stats(), "decoded": dec.Stats()} {
		if st.TemporalBytes <= 0 || st.IntervalBytes <= 0 {
			t.Fatalf("%s: empty section in %+v", name, st)
		}
		if sum := st.TemporalBytes + st.IntervalBytes; sum != int64(len(enc)-sidecarHdrLen) {
			t.Fatalf("%s: sections sum to %d, want %d", name, sum, len(enc)-sidecarHdrLen)
		}
	}
}

// TestSidecarV2LazyTemporal pins the lazy temporal path: decoding a
// sidecar touches no temporal section, each section decodes exactly once
// on first touch, and the entries match the built index.
func TestSidecarV2LazyTemporal(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Stats().TemporalSectionsForced; got != 0 {
		t.Fatalf("open forced %d temporal sections, want 0", got)
	}
	for j := range ix.Temporal {
		if dec.Temporal[j] != nil {
			t.Fatalf("Temporal[%d] eagerly decoded", j)
		}
		got, err := dec.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ix.Temporal[j], got) {
			t.Fatalf("temporal entries for trajectory %d differ", j)
		}
	}
	if got := dec.Stats().TemporalSectionsForced; got != int64(len(ix.Temporal)) {
		t.Fatalf("forced %d sections, want %d", got, len(ix.Temporal))
	}
	// Warm touches are free: the counter stays put.
	if _, err := dec.TemporalEntries(0); err != nil {
		t.Fatal(err)
	}
	if got := dec.Stats().TemporalSectionsForced; got != int64(len(ix.Temporal)) {
		t.Fatalf("warm touch re-forced a section (%d)", got)
	}
}

// TestSidecarV2SuccinctStats pins the observability counters: pruning an
// unoccupied (interval, region) pair is counted and decodes nothing,
// hitting an occupied pair decodes exactly one block, and the succinct
// directories report a nonzero resident footprint.
func TestSidecarV2SuccinctStats(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats().SuccinctBytes == 0 {
		t.Fatal("SuccinctBytes = 0 after decode")
	}

	// Find an occupied pair and an unoccupied region in the same interval.
	var id int
	var hit, miss roadnet.RegionID = -1, -1
	for iid := range ix.Intervals {
		id, hit, miss = iid, -1, -1
		for re := roadnet.RegionID(0); int(re) < opts.GridNX*opts.GridNY; re++ {
			if b, _ := ix.Buckets(iid, re); b != nil && hit < 0 {
				hit = re
			} else if b == nil && miss < 0 {
				miss = re
			}
		}
		if hit >= 0 && miss >= 0 {
			break
		}
	}
	if hit < 0 || miss < 0 {
		t.Skip("degenerate fixture: no (hit, miss) pair")
	}

	if b, err := dec.Buckets(id, miss); err != nil || b != nil {
		t.Fatalf("Buckets(miss) = %v, %v", b, err)
	}
	st := dec.Stats()
	if st.RegionPrunedNoTouch != 1 || st.RegionBlocksDecoded != 0 {
		t.Fatalf("after miss: pruned=%d decoded=%d", st.RegionPrunedNoTouch, st.RegionBlocksDecoded)
	}
	if b, err := dec.Buckets(id, hit); err != nil || b == nil {
		t.Fatalf("Buckets(hit) = %v, %v", b, err)
	}
	st = dec.Stats()
	if st.RegionBlocksDecoded != 1 {
		t.Fatalf("after hit: decoded=%d, want 1", st.RegionBlocksDecoded)
	}
	// Warm re-read comes from the pointer cache.
	if _, err := dec.Buckets(id, hit); err != nil {
		t.Fatal(err)
	}
	if st := dec.Stats(); st.RegionBlocksDecoded != 1 {
		t.Fatalf("warm hit re-decoded (%d)", st.RegionBlocksDecoded)
	}
}
