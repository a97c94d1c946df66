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
	bounds := ix.Bounds()
	for id := range ix.Intervals {
		_, _ = ix.Candidates(id)
		_, _ = ix.AppendBucketsInRect(nil, id, bounds)
	}
	_ = ix.SpatialSizeBits(8)
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

// TestDecodeBucketRejectsOverflow: a bucket whose ref orig does not fit an
// int32 is corrupt, not truncated to a wrong value.
func TestDecodeBucketRejectsOverflow(t *testing.T) {
	const pExp = 9
	ok, err := appendBucket(nil, &RegionBucket{Refs: []RefTuple{{Traj: 3, Orig: math.MaxInt32, Enters: true}}}, pExp)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := decodeBucket(ok, pExp); err != nil || b.Refs[0].Orig != math.MaxInt32 || !b.Refs[0].Enters {
		t.Fatalf("largest fields: %+v, %v", b, err)
	}
	// One ref tuple (traj 3, orig 2³¹, enters, zero probabilities).
	ref := binary.AppendUvarint(nil, 1)
	ref = binary.AppendVarint(ref, 3)
	ref = binary.AppendUvarint(ref, (math.MaxInt32+1)<<1|1)
	ref = append(ref, 0, 0) // pTotal, pMax
	if _, err := decodeBucket(ref, pExp); err == nil || !strings.Contains(err.Error(), "overflows int32") {
		t.Errorf("orig past int32: err = %v", err)
	}
}

// retiredVersions are the sidecar versions readers no longer accept.
var retiredVersions = []uint16{1, 2, 3, 4}

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
// version 5, and a version-1 to -4 sidecar no longer round-trips — it
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

// TestSidecarV1CorruptionIsAnError truncates and bit-flips a version-1
// to -4 sidecar at every offset: each variant must fail
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

// TestSidecarExactProbabilities pins the quantum-count encoding: on DK, CD
// and HZ archives every tuple decoded from the sidecar equals the built
// one bit for bit, and hand-built groups at the extremes (all instances
// enter, so PTotal is exactly 1; no non-reference, so PMax is 0; one
// quantum) round-trip too.  A probability off the quantum is an encode
// error, never a rounded value.
func TestSidecarExactProbabilities(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	for _, p := range []gen.Profile{gen.DK(), gen.CD(), gen.HZ()} {
		p.Network.Cols, p.Network.Rows = 20, 20
		ds, err := gen.Build(p, 30, 5)
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
		enc, err := ix.EncodeSidecar(1)
		if err != nil {
			t.Fatal(err)
		}
		if int(enc[35]) != a.PCodec.MaxLen() {
			t.Fatalf("%s: pExp = %d, want Imax %d", p.Name, enc[35], a.PCodec.MaxLen())
		}
		dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		tuples := 0
		for id, iv := range ix.Intervals {
			if got := dec.Intervals[id].NonRefs; got != iv.NonRefs {
				t.Fatalf("%s interval %d: %d non-references, built %d", p.Name, id, got, iv.NonRefs)
			}
			iv.occ.forEach(func(_, re int) {
				want, _ := ix.Buckets(id, roadnet.RegionID(re))
				got, err := dec.Buckets(id, roadnet.RegionID(re))
				if err != nil {
					t.Fatal(err)
				}
				requireSameTuples(t, want.Refs, got.Refs)
				tuples += len(got.Refs)
			})
		}
		if tuples == 0 {
			t.Fatalf("%s: no tuple in the fixture", p.Name)
		}
	}

	for _, pExp := range []int{7, 9, 11, maxPExp} {
		q := float32(math.Ldexp(1, -pExp))
		want := []RefTuple{
			{Traj: 0, Orig: 0, Enters: true, PTotal: 1, PMax: 0},
			{Traj: 1, Orig: 2, Enters: false, PTotal: 1, PMax: 1 - q},
			{Traj: 2, Orig: 5, Enters: true, PTotal: q, PMax: q},
			{Traj: 3, Orig: 1, Enters: true, PTotal: 0, PMax: 0},
		}
		enc, err := appendBucket(nil, &RegionBucket{Refs: want}, pExp)
		if err != nil {
			t.Fatalf("pExp %d: %v", pExp, err)
		}
		got, err := decodeBucket(enc, pExp)
		if err != nil {
			t.Fatalf("pExp %d: %v", pExp, err)
		}
		requireSameTuples(t, want, got.Refs)
		if _, err := appendBucket(nil, &RegionBucket{Refs: []RefTuple{{PTotal: q / 2}}}, pExp); err == nil {
			t.Fatalf("pExp %d: half a quantum encoded", pExp)
		}
	}
}

// requireSameTuples compares tuple slices with the floats compared as
// bit patterns.
func requireSameTuples(t *testing.T, want, got []RefTuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if w.Traj != g.Traj || w.Orig != g.Orig || w.Enters != g.Enters ||
			math.Float32bits(w.PTotal) != math.Float32bits(g.PTotal) ||
			math.Float32bits(w.PMax) != math.Float32bits(g.PMax) {
			t.Fatalf("tuple %d = %+v, want %+v", k, g, w)
		}
	}
}

// layoutAt locates interval i's bucket layout in a sidecar: the offset of
// its blobLen field, the offset of its blob and the blob's length.
func layoutAt(t testing.TB, enc []byte, numTrajs, nbits, i int) (lenOff, blobOff, blobLen int) {
	t.Helper()
	r := &sidecarReader{data: enc, off: sidecarHdrLen}
	if _, _, err := r.directory(numTrajs); err != nil {
		t.Fatal(err)
	}
	n, err := r.intervalCount()
	if err != nil || i >= n {
		t.Fatalf("interval %d of %d: %v", i, n, err)
	}
	prev := int64(0)
	for k := 0; ; k++ {
		if _, err = r.intervalID(k == 0, &prev); err == nil {
			if _, err = r.efSlice(); err == nil {
				if _, err = r.uvarint(); err == nil {
					_, err = r.bitvec(nbits)
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		lenOff = r.off
		blob, err := r.lenPrefixed()
		if err != nil {
			t.Fatal(err)
		}
		if k == i {
			return lenOff, r.off - len(blob), len(blob)
		}
	}
}

// withUvarintAt returns enc with the uvarint at off replaced by v.
func withUvarintAt(enc []byte, off int, v uint64) []byte {
	_, n := binary.Uvarint(enc[off:])
	out := binary.AppendUvarint(bytes.Clone(enc[:off]), v)
	return append(out, enc[off+n:]...)
}

// TestSidecarBucketBoundsCorruption pins the first-touch boundary pass:
// a blob whose last bucket claims one tuple more or less, so the tuple
// counts no longer add up to exactly the blob in exactly its occupancy
// count, parses (the pass is lazy) and then fails every accessor that
// needs a bucket of that interval, and a blobLen one byte short or long
// fails either the parse or the pass.
func TestSidecarBucketBoundsCorruption(t *testing.T) {
	opts := Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc, err := ix.EncodeSidecar(7)
	if err != nil {
		t.Fatal(err)
	}
	nt, nbits := len(a.Trajs), opts.GridNX*opts.GridNY
	ids := rectIntervals(ix)[:len(ix.Intervals)]
	bucketErr := func(dec *Index, id int) error {
		for re := roadnet.RegionID(0); int(re) < nbits; re++ {
			if _, err := dec.Buckets(id, re); err != nil {
				return err
			}
		}
		return nil
	}
	checked := 0
	for i, id := range ids {
		lenOff, blobOff, blobLen := layoutAt(t, enc, nt, nbits, i)
		npop := ix.Intervals[id].occ.npop
		if npop == 0 {
			continue
		}
		offs, err := bucketBounds(enc[blobOff:blobOff+blobLen], npop)
		if err != nil {
			t.Fatal(err)
		}
		last := blobOff + int(offs[npop-1])
		nr, _ := binary.Uvarint(enc[last:])
		if nr == 0 || nr >= 127 {
			continue
		}
		checked++
		for _, d := range []int{-1, +1} {
			mut := withUvarintAt(enc, last, uint64(int(nr)+d))
			dec, err := DecodeSidecar(mut, a.Graph, nt, 7, opts)
			if err != nil {
				t.Fatalf("interval %d, last tuple count %+d: parse failed: %v", id, d, err)
			}
			if err := bucketErr(dec, id); err == nil || !strings.Contains(err.Error(), "bucket boundaries") {
				t.Fatalf("interval %d, last tuple count %+d: err = %v", id, d, err)
			}
			if _, err := dec.AppendBucketsInRect(nil, id, a.Graph.Bounds()); err == nil {
				t.Fatalf("interval %d, last tuple count %+d: AppendBucketsInRect succeeded", id, d)
			}
			if n := dec.SpatialSizeBits(8); n != 0 {
				t.Fatalf("interval %d, last tuple count %+d: SpatialSizeBits = %d", id, d, n)
			}
			mut = withUvarintAt(enc, lenOff, uint64(blobLen+d))
			if dec, err := DecodeSidecar(mut, a.Graph, nt, 7, opts); err == nil {
				if err := bucketErr(dec, id); err == nil {
					t.Fatalf("interval %d, blobLen %+d: decoded cleanly", id, d)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no interval with a small last bucket in the fixture")
	}
	mut := bytes.Clone(enc)
	mut[35] = maxPExp + 1
	if _, err := DecodeSidecar(mut, a.Graph, nt, 7, opts); err == nil || !strings.Contains(err.Error(), "exponent 53") {
		t.Fatalf("pExp 53: err = %v", err)
	}
}
