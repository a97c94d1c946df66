package stiu

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	// A candidate set names trajectories of the archive, each once: a
	// value at or past the trajectory count, or a repeated value, is
	// corrupt, so no query indexes past the archive's records.
	for _, tc := range []struct {
		vals     []int32
		maxCount int
	}{
		{[]int32{3, 10}, 10},
		{[]int32{1 << 20}, 12},
		{[]int32{5, 5}, 12},
	} {
		r := &sidecarReader{data: appendEFSet(nil, tc.vals)}
		if _, err := r.efSet(tc.maxCount); err == nil || !strings.Contains(err.Error(), "not the next trajectory") {
			t.Errorf("%v of %d trajectories: err = %v", tc.vals, tc.maxCount, err)
		}
	}
}

// compareGroups orders entries by (traj, orig, pTotal, pMax).
func compareGroups(a, b refGroup) int {
	return cmp.Or(cmp.Compare(a.traj, b.traj), cmp.Compare(a.orig, b.orig),
		cmp.Compare(a.pTotal, b.pTotal), cmp.Compare(a.pMax, b.pMax))
}

// newGroupTable is the reference for the group tables Build emits: the
// interval's reference groups in (traj, orig) order, each with its modal
// pair — the most frequent over the group's tuples in every region, ties
// going to the smallest pair.  One sort of the interval's tuples by
// (group, pair) turns the pair counts into run lengths.
func newGroupTable(regions map[roadnet.RegionID]*RegionBucket) []refGroup {
	var all []refGroup
	for _, b := range regions {
		for _, rt := range b.Refs {
			all = append(all, refGroup{rt.Traj, rt.Orig, rt.PTotal, rt.PMax})
		}
	}
	slices.SortFunc(all, compareGroups)
	groups := all[:0] // compacts in place: entry g is written after run g is read
	best := 0
	for i := 0; i < len(all); {
		run := i + 1
		for run < len(all) && all[run] == all[i] {
			run++
		}
		if n := len(groups); n > 0 && groups[n-1].traj == all[i].traj && groups[n-1].orig == all[i].orig {
			if run-i > best { // strictly more frequent: a tie keeps the smaller pair
				groups[n-1], best = all[i], run-i
			}
		} else {
			groups, best = append(groups, all[i]), run-i
		}
		i = run
	}
	return groups
}

// encodeBuckets encodes buckets as the layout of one interval would —
// one group table over all of them, each bucket against it — and
// decodes them back through the decoded table.  The candidate set is the
// tuples' trajectories.
func encodeBuckets(t *testing.T, buckets [][]RefTuple, pExp int) (groups []refGroup, got [][]RefTuple, err error) {
	t.Helper()
	regions := make(map[roadnet.RegionID]*RegionBucket)
	var trajs []int32
	for i, refs := range buckets {
		regions[roadnet.RegionID(i)] = &RegionBucket{Refs: refs}
		for _, rt := range refs {
			trajs = append(trajs, rt.Traj)
		}
	}
	slices.Sort(trajs)
	trajs = slices.Compact(trajs)
	groups = newGroupTable(regions)
	table, err := appendGroups(nil, groups, trajs, pExp)
	if err != nil {
		return nil, nil, err
	}
	r := &sidecarReader{data: table}
	blob, err := r.lenPrefixed()
	if err != nil || r.remaining() != 0 {
		t.Fatalf("group table framing: %v, %d trailing bytes", err, r.remaining())
	}
	dec, err := decodeGroups(blob, trajs, pExp)
	if err != nil {
		return nil, nil, err
	}
	for _, refs := range buckets {
		enc, err := appendBucket(nil, &RegionBucket{Refs: refs}, groups, pExp)
		if err != nil {
			return nil, nil, err
		}
		b, err := decodeBucket(enc, dec, pExp)
		if err != nil {
			return nil, nil, err
		}
		got = append(got, b.Refs)
	}
	return groups, got, nil
}

// TestDecodeBucketRejectsOverflow: a group table whose orig does not fit
// an int32, whose rank falls past the candidate set, or a bucket tuple
// whose group index falls past the table or whose exception pair is cut
// short, is corrupt — an error, never a truncated or out-of-range value.
func TestDecodeBucketRejectsOverflow(t *testing.T) {
	const pExp = 9
	_, got, err := encodeBuckets(t, [][]RefTuple{{{Traj: 3, Orig: math.MaxInt32, Enters: true}}}, pExp)
	if err != nil || got[0][0].Orig != math.MaxInt32 || !got[0][0].Enters {
		t.Fatalf("largest fields: %+v, %v", got, err)
	}
	cands := []int32{3, 8}
	entry := func(rankDelta, orig uint64) []byte {
		b := binary.AppendUvarint(nil, rankDelta)
		b = binary.AppendUvarint(b, orig)
		return append(b, 0, 0) // pTotal, pMax
	}
	table := func(entries ...[]byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(entries))), slices.Concat(entries...)...)
	}
	for _, tc := range []struct {
		name, want string
		table      []byte
	}{
		{"orig past int32", "overflows int32", table(entry(0, math.MaxInt32+1))},
		{"rank one past the candidate set", "rank past candidate set", table(entry(uint64(len(cands)), 0))},
		{"delta one past the candidate set", "rank past candidate set", table(entry(1, 0), entry(1, 0))},
		{"orig repeated in a trajectory", "does not ascend", table(entry(0, 2), entry(0, 2))},
		{"count past the table", "overflows table", append(binary.AppendUvarint(nil, 2), entry(0, 0)...)},
	} {
		if _, err := decodeGroups(tc.table, cands, pExp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	groups, err := decodeGroups(table(entry(0, 0), entry(1, 1)), cands, pExp)
	if err != nil || len(groups) != 2 || groups[1].traj != 8 {
		t.Fatalf("two-group table: %+v, %v", groups, err)
	}
	bucket := func(codes ...uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(codes)))
		for _, c := range codes {
			b = binary.AppendUvarint(b, c)
		}
		return b
	}
	for _, tc := range []struct {
		name, want string
		bucket     []byte
	}{
		{"index one past the table", "group index past table", bucket(2 << 2)},
		{"second index past the table", "group index past table", bucket(1<<2, 0)},
		{"more tuples than groups", "overflows block", bucket(0, 0, 0)},
		{"exception with no pair", "truncated", bucket(tupleException)},
		{"exception with half a pair", "truncated", append(bucket(tupleException), 5)},
	} {
		if _, err := decodeBucket(tc.bucket, groups, pExp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if b, err := decodeBucket(append(bucket(tupleEnters, tupleException), 3, 4), groups, pExp); err != nil ||
		b.Refs[0].Traj != 3 || !b.Refs[0].Enters || b.Refs[1].Traj != 8 || b.Refs[1].PTotal != 3.0/512 {
		t.Fatalf("well-formed bucket: %+v, %v", b, err)
	}
}

// retiredVersions are the sidecar versions readers no longer accept.
var retiredVersions = []uint16{1, 2, 3, 4, 5}

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

// TestSidecarRetiredVersionsRefused pins the version policy: the encoder
// writes version 6, and a version-1 to -5 sidecar no longer round-trips —
// it fails DecodeSidecar with a versioned error, so a store rebuilds the
// index from its archive instead.
func TestSidecarRetiredVersionsRefused(t *testing.T) {
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

// TestSidecarRetiredVersionsCorruptionIsAnError truncates and bit-flips
// a version-1 to -5 sidecar at every offset: each variant must fail
// DecodeSidecar, never decode and never panic.
func TestSidecarRetiredVersionsCorruptionIsAnError(t *testing.T) {
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
		want := [][]RefTuple{{
			{Traj: 0, Orig: 0, Enters: true, PTotal: 1, PMax: 0},
			{Traj: 1, Orig: 2, Enters: false, PTotal: 1, PMax: 1 - q},
			{Traj: 2, Orig: 5, Enters: true, PTotal: q, PMax: q},
			{Traj: 3, Orig: 1, Enters: true, PTotal: 0, PMax: 0},
		}, {
			// Exceptions: each group's second bucket carries another pair.
			{Traj: 0, Orig: 0, Enters: false, PTotal: q, PMax: 0},
			{Traj: 2, Orig: 5, Enters: true, PTotal: 1, PMax: 1 - q},
		}}
		_, got, err := encodeBuckets(t, want, pExp)
		if err != nil {
			t.Fatalf("pExp %d: %v", pExp, err)
		}
		for i := range want {
			requireSameTuples(t, want[i], got[i])
		}
		if _, _, err := encodeBuckets(t, [][]RefTuple{{{PTotal: q / 2}}}, pExp); err == nil {
			t.Fatalf("pExp %d: half a quantum encoded", pExp)
		}
		if _, _, err := encodeBuckets(t, [][]RefTuple{{{PTotal: q}}, {{PTotal: q / 2}}}, pExp); err == nil {
			t.Fatalf("pExp %d: half a quantum encoded as an exception", pExp)
		}
	}
}

// TestGroupTableModalPair pins the choice of each group's pair, by
// Build's appendModalGroups and by the reference newGroupTable alike: the
// most frequent over the interval's buckets, ties going to the smaller
// (pTotal, pMax), whatever the bucket order.  The other tuples are
// exceptions and still decode to their own pair.
func TestGroupTableModalPair(t *testing.T) {
	const pExp = 9
	a := func(pt, pm float32) RefTuple { return RefTuple{Traj: 4, Orig: 1, PTotal: pt, PMax: pm} }
	b := func(pt, pm float32) RefTuple { return RefTuple{Traj: 9, Orig: 0, Enters: true, PTotal: pt, PMax: pm} }
	buckets := [][]RefTuple{
		{a(0.5, 0.25), b(1, 0.5)},
		{a(0.75, 0), b(0.5, 0.5)},
		{a(0.75, 0)},
		{b(1, 0.25)},
	}
	want := []refGroup{{4, 1, 0.75, 0}, {9, 0, 0.5, 0.5}}
	for rot := range buckets {
		rotated := append(slices.Clone(buckets[rot:]), buckets[:rot]...)
		groups, got, err := encodeBuckets(t, rotated, pExp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groups, want) {
			t.Fatalf("rotation %d: groups %+v, want %+v", rot, groups, want)
		}
		for i := range rotated {
			requireSameTuples(t, rotated[i], got[i])
		}
		// Build counts each group's pairs in first-seen order, in
		// interval 7 here, and chooses per group.
		var emitted []refGroup
		for _, g := range want {
			var counts []pairCount
			for _, refs := range rotated {
				for _, rt := range refs {
					if rt.Traj != g.traj {
						continue
					}
					counts = countPair(counts, groupEmit{7, refGroup{rt.Traj, rt.Orig, rt.PTotal, rt.PMax}})
				}
			}
			for _, e := range appendModalGroups(nil, counts) {
				emitted = append(emitted, e.group)
			}
		}
		if !reflect.DeepEqual(emitted, want) {
			t.Fatalf("rotation %d: Build chose %+v, want %+v", rot, emitted, want)
		}
	}
	// A bucket whose tuples are not in (traj, orig) order cannot be coded
	// as ascending group indices.
	if _, _, err := encodeBuckets(t, [][]RefTuple{{b(1, 0), a(1, 0)}}, pExp); err == nil {
		t.Fatal("descending tuples encoded")
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

// intervalSpans locates one interval's lazily decoded sections in a
// sidecar: per section the offset of its uvarint length field, of its
// bytes, and its length.
type intervalSpans struct {
	groupsLenOff, groupsOff, groupsLen int // group table
	lenOff, blobOff, blobLen           int // bucket blob
}

// intervalAt locates interval i's sections in a sidecar.
func intervalAt(t testing.TB, enc []byte, numTrajs, nbits, i int) intervalSpans {
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
		var sp intervalSpans
		var groups, blob []byte
		if _, err = r.intervalID(k == 0, &prev); err == nil {
			if _, err = r.efSlice(); err == nil {
				sp.groupsLenOff = r.off
				if groups, err = r.lenPrefixed(); err == nil {
					sp.groupsOff, sp.groupsLen = r.off-len(groups), len(groups)
					if _, err = r.uvarint(); err == nil {
						if _, err = r.bitvec(nbits); err == nil {
							sp.lenOff = r.off
							blob, err = r.lenPrefixed()
							sp.blobOff, sp.blobLen = r.off-len(blob), len(blob)
						}
					}
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if k == i {
			return sp
		}
	}
}

// spliceSection replaces enc[off:off+n] with repl inside the section of
// secLen bytes whose uvarint length field is at lenOff, and rewrites
// that field to the section's new length.
func spliceSection(enc []byte, lenOff, secLen, off, n int, repl []byte) []byte {
	out := slices.Concat(enc[:off], repl, enc[off+n:])
	return withUvarintAt(out, lenOff, uint64(secLen+len(repl)-n))
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
		sp := intervalAt(t, enc, nt, nbits, i)
		lenOff, blobOff, blobLen := sp.lenOff, sp.blobOff, sp.blobLen
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

// TestSidecarBytesPerTraj pins the sidecar's size on DK, CD and HZ at the
// default granularity, and that every (interval, region) bucket decoded
// from it equals the built one.  The ceilings sit about 10% above the
// measured sizes, so a change that re-inflates the index fails here.  At
// 300 trajectories the per-interval occupancy bitvectors are a large
// share; the version-5 layout, with every tuple's trajectory and pair
// stored in full, was 187.8 / 165.8 / 216.1 B/traj.
func TestSidecarBytesPerTraj(t *testing.T) {
	for _, tc := range []struct {
		p       gen.Profile
		ceiling float64 // B/traj
	}{
		{gen.DK(), 126}, // measured 114.2
		{gen.CD(), 117}, // measured 106.6
		{gen.HZ(), 136}, // measured 123.4
	} {
		const n = 300
		ds, err := gen.Build(tc.p, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(tc.p.Ts))
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Compress(ds.Trajectories)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		ix, err := Build(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ix.EncodeSidecar(1)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameIndex(t, ix, dec)
		requireModalGroups(t, ix, dec)
		per := float64(len(enc)) / n
		t.Logf("%s: sidecar %.1f B/traj over %d trajectories", tc.p.Name, per, n)
		if per > tc.ceiling {
			t.Errorf("%s: sidecar is %.1f B/traj, want ≤ %.0f", tc.p.Name, per, tc.ceiling)
		}
	}
}

// requireModalGroups holds the group tables Build emitted to the
// reference newGroupTable over the built buckets, interval by interval,
// and requires the decoded index's tables, forced by requireSameIndex,
// to equal them.
func requireModalGroups(t *testing.T, built, dec *Index) {
	t.Helper()
	groups, exceptions, tuples := 0, 0, 0
	for id, iv := range built.Intervals {
		regions := make(map[roadnet.RegionID]*RegionBucket)
		iv.occ.forEach(func(_, re int) {
			b, err := built.Buckets(id, roadnet.RegionID(re))
			if err != nil {
				t.Fatal(err)
			}
			regions[roadnet.RegionID(re)] = b
		})
		want := newGroupTable(regions)
		if !slices.Equal(iv.groups, want) {
			t.Fatalf("interval %d: built group table %+v, want %+v", id, iv.groups, want)
		}
		if !slices.Equal(dec.Intervals[id].groups, want) {
			t.Fatalf("interval %d: decoded group table differs", id)
		}
		groups += len(want)
		for _, b := range regions {
			for _, rt := range b.Refs {
				g, _ := findGroup(want, rt.Traj, rt.Orig)
				if rt.PTotal != want[g].pTotal || rt.PMax != want[g].pMax {
					exceptions++
				}
				tuples++
			}
		}
	}
	t.Logf("%d groups, %d tuples, %.1f%% exceptions", groups, tuples, 100*float64(exceptions)/float64(tuples))
}
