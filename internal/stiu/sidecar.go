// Sidecar persistence for the StIU index ("UTCI" format, FORMAT.md §5),
// which is also the one in-memory form every Index serves from.
//
// A sidecar freezes a built index so that opening a shard never replays
// the O(archive) Build walk.  It stores
//
//   - a fixed-width u32 offset directory over per-trajectory temporal
//     sections, so parsing decodes no temporal entry at all and
//     trajectory j's section decodes on its first When/FindTemporal touch;
//   - per interval, an Elias–Fano candidate set, a group table, the
//     interval's non-reference tuple count, a rank bitvector over the
//     grid's region occupancy and the length-prefixed blob of
//     individually encoded region buckets, so a probe of an absent
//     (interval, region) pair is a bit test and a present pair decodes
//     only its own bucket.
//
// The group table holds each reference group (traj, orig) of the
// interval once, with the probability pair most of its tuples carry: a
// group touches many cells, and its tuples almost always share one
// (pTotal, pMax).  A bucket tuple is then one uvarint — the group index,
// enters and an exception bit — followed by an explicit pair only when
// the tuple's pair is not its group's.
//
// Bucket boundaries are not stored.  The first bucket decode in an
// interval derives all of them in one pass over the blob, which reads
// each bucket's tuple count and steps over its varints.  Probabilities
// are stored exactly, as uvarint counts of the quantum 2^-pExp, where
// pExp is the archive's PDDP maximum code length (every archive
// probability is a multiple of it).
//
// There is no per-trajectory spatial section: the When path's Lemma-1
// gate reads the interval buckets over the trajectory's interval span and
// keeps the tuples of that trajectory.
//
// The temporal directory is fixed-width and the bitvectors are verified
// at parse (monotone span checks, group tables and bucket boundaries
// happen lazily per section), so parsing is O(header + interval count),
// independent of temporal-entry and tuple counts.  When the buffer is a
// memory mapping, untouched sections never even page in.
//
// The encoding is deterministic: intervals and regions are emitted in
// ascending id order, group tables in (traj, orig) order with ties
// between equally frequent pairs going to the smaller pair, and tuple
// slices keep their build order.
package stiu

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"utcq/internal/bitio"
	"utcq/internal/par"
	"utcq/internal/roadnet"
)

const (
	sidecarMagic   = "UTCI"
	sidecarVersion = 6
	sidecarHdrLen  = 36

	// maxPExp bounds the probability quantum exponent: 2^-52 is the
	// finest quantum a PDDP codec has (pddp.NewCodec).
	maxPExp = 52
)

// ErrSidecarMismatch reports a sidecar that is well-formed but was written
// for a different archive or index geometry.
var ErrSidecarMismatch = fmt.Errorf("stiu: sidecar does not match archive")

// EncodeSidecar returns the index's sidecar bytes bound to an archive of
// archiveSize bytes.  The index already serves from those bytes, so
// nothing is re-encoded: when the header carries archiveSize the buffer
// itself is returned (callers must not modify it), otherwise a copy with
// the header's size field set — the buffer may be a read-only mapping.
func (ix *Index) EncodeSidecar(archiveSize int64) ([]byte, error) {
	if int64(binary.LittleEndian.Uint64(ix.raw[27:35])) == archiveSize {
		return ix.raw, nil
	}
	out := bytes.Clone(ix.raw)
	binary.LittleEndian.PutUint64(out[27:35], uint64(archiveSize))
	return out, nil
}

// encode serializes the build state with a zero archive size and
// probabilities in quanta of 2^-pExp.  Every per-trajectory and
// per-interval part is independent, so the parts encode on the worker
// pool and the assembly only concatenates them.
func (st *buildState) encode(opts Options, pExp, workers int) ([]byte, error) {
	nbits := opts.GridNX * opts.GridNY
	n := len(st.temporal)
	ids := make([]int, 0, len(st.intervals))
	for id := range st.intervals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	temporal := make([][]byte, n)
	intervals := make([][]byte, len(ids))
	err := par.Do(workers, n+len(ids), func(i int) error {
		if i < n {
			temporal[i] = appendTemporalEntries(nil, st.temporal[i])
			return nil
		}
		iv := st.intervals[ids[i-n]]
		head, err := appendGroups(appendEFSet(nil, iv.trajs), iv.groups, iv.trajs, pExp)
		if err == nil {
			head = binary.AppendUvarint(head, uint64(iv.nonRefs))
			intervals[i-n], err = appendLayout(head, nbits, iv.regions, iv.groups, pExp)
		}
		if err != nil {
			return fmt.Errorf("stiu: interval %d: %w", ids[i-n], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	size := sidecarHdrLen + 4*(n+1) + (len(ids)+1)*binary.MaxVarintLen64
	for _, parts := range [][][]byte{temporal, intervals} {
		for _, p := range parts {
			size += len(p)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, sidecarMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, sidecarVersion)
	buf = append(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, uint32(opts.GridNX))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(opts.GridNY))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.IntervalDur))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // archive size
	buf = append(buf, byte(pExp))

	// Temporal section: (numTrajs+1) u32 offsets, then the blobs.
	if buf, err = appendDirectory(buf, temporal); err != nil {
		return nil, fmt.Errorf("stiu: temporal section: %w", err)
	}
	// Interval section, ascending id order.
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for i, id := range ids {
		if i == 0 {
			buf = binary.AppendVarint(buf, int64(id))
		} else {
			buf = binary.AppendUvarint(buf, uint64(id-ids[i-1]))
		}
		buf = append(buf, intervals[i]...)
	}
	return buf, nil
}

// appendDirectory emits len(parts)+1 fixed-width u32 offsets delimiting
// parts, then the concatenated parts themselves.
func appendDirectory(buf []byte, parts [][]byte) ([]byte, error) {
	off := 0
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, p := range parts {
		if off += len(p); off > math.MaxUint32 {
			return nil, fmt.Errorf("section exceeds u32 offset space (%d bytes)", off)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(off))
	}
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return buf, nil
}

// appendLayout emits one bucket layout: occupancy bitvector over nbits
// regions, then the length-prefixed concatenation of the bucket encodings
// in ascending region-id (= rank) order, each against the interval's
// group table.
func appendLayout(buf []byte, nbits int, m map[roadnet.RegionID]*RegionBucket, groups []refGroup, pExp int) ([]byte, error) {
	ids := make([]int32, 0, len(m))
	for id := range m {
		if id < 0 || int(id) >= nbits {
			return nil, fmt.Errorf("region id %d outside %d-cell grid", id, nbits)
		}
		ids = append(ids, int32(id))
	}
	slices.Sort(ids)
	buf = appendBitvec(buf, nbits, ids)
	var blob []byte
	for _, id := range ids {
		var err error
		if blob, err = appendBucket(blob, m[roadnet.RegionID(id)], groups, pExp); err != nil {
			return nil, fmt.Errorf("region %d: %w", id, err)
		}
	}
	if len(blob) > math.MaxUint32 {
		return nil, fmt.Errorf("bucket blob exceeds u32 offset space (%d bytes)", len(blob))
	}
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...), nil
}

// appendTemporalEntries emits one trajectory's temporal section: a
// uvarint count, then (delta-coded start, no, pos) per entry.
func appendTemporalEntries(buf []byte, entries []TemporalEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	prev := int64(0)
	for i, e := range entries {
		if i == 0 {
			buf = binary.AppendVarint(buf, e.Start)
		} else {
			buf = binary.AppendUvarint(buf, uint64(e.Start-prev))
		}
		prev = e.Start
		buf = binary.AppendVarint(buf, int64(e.No))
		buf = binary.AppendVarint(buf, int64(e.Pos))
	}
	return buf
}

// DecodeSidecar rebuilds an index from sidecar bytes.  The buffer may be
// a read-only memory mapping; the index aliases it, so it must stay valid
// for the index's lifetime.  Any mismatch with the expected geometry or
// archive, and any version other than the current one, returns an error —
// callers fall back to Build.
func DecodeSidecar(data []byte, g *roadnet.Graph, numTrajs int, archiveSize int64, opts Options) (*Index, error) {
	if len(data) < sidecarHdrLen {
		return nil, fmt.Errorf("stiu: sidecar too short (%d bytes)", len(data))
	}
	if string(data[:4]) != sidecarMagic {
		return nil, fmt.Errorf("stiu: bad sidecar magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != sidecarVersion {
		return nil, fmt.Errorf("stiu: unsupported sidecar version %d", version)
	}
	if data[6] != 0 {
		return nil, fmt.Errorf("stiu: unsupported sidecar flags %#x", data[6])
	}
	nx := int(binary.LittleEndian.Uint32(data[7:11]))
	ny := int(binary.LittleEndian.Uint32(data[11:15]))
	dur := int64(binary.LittleEndian.Uint64(data[15:23]))
	nt := int(binary.LittleEndian.Uint32(data[23:27]))
	sz := int64(binary.LittleEndian.Uint64(data[27:35]))
	pExp := int(data[35])
	if nx != opts.GridNX || ny != opts.GridNY || dur != opts.IntervalDur ||
		nt != numTrajs || sz != archiveSize {
		return nil, fmt.Errorf("%w: header (%dx%d dur=%d trajs=%d size=%d), want (%dx%d dur=%d trajs=%d size=%d)",
			ErrSidecarMismatch, nx, ny, dur, nt, sz,
			opts.GridNX, opts.GridNY, opts.IntervalDur, numTrajs, archiveSize)
	}
	if pExp > maxPExp {
		return nil, fmt.Errorf("stiu: sidecar probability exponent %d exceeds %d", pExp, maxPExp)
	}
	ix := &Index{Opts: opts, Grid: roadnet.NewGrid(g, opts.GridNX, opts.GridNY), pExp: pExp}
	if err := ix.parse(data, numTrajs); err != nil {
		return nil, err
	}
	return ix, nil
}

// parse attaches the body of a header-checked sidecar to ix.  Temporal
// sections, candidate sets, group tables and every region bucket stay on
// the buffer; only the interval skeleton is built.
func (ix *Index) parse(data []byte, numTrajs int) error {
	ix.raw = data
	ix.Temporal = make([][]TemporalEntry, numTrajs)
	ix.lazyTemporal = make([]lazyBlock, numTrajs)
	ix.Intervals = make(map[int]*Interval)
	r := &sidecarReader{data: data, off: sidecarHdrLen}
	nbits := ix.Opts.GridNX * ix.Opts.GridNY

	var err error
	if ix.tempDir, ix.tempBlob, err = r.directory(numTrajs); err != nil {
		return fmt.Errorf("stiu: sidecar temporal directory: %w", err)
	}
	resident := len(ix.tempDir)
	ix.temporalBytes = int64(r.off - sidecarHdrLen)

	start := r.off
	nIv, err := r.intervalCount()
	if err != nil {
		return fmt.Errorf("stiu: sidecar intervals: %w", err)
	}
	prevID := int64(0)
	for i := 0; i < nIv; i++ {
		id, err := r.intervalID(i == 0, &prevID)
		if err != nil {
			return fmt.Errorf("stiu: sidecar intervals: %w", err)
		}
		iv := &Interval{}
		if iv.cand.data, err = r.efSlice(); err != nil {
			return fmt.Errorf("stiu: sidecar interval %d trajs: %w", id, err)
		}
		if iv.grp.data, err = r.lenPrefixed(); err != nil {
			return fmt.Errorf("stiu: sidecar interval %d groups: %w", id, err)
		}
		nonRefs, err := r.uvarint()
		if err == nil && nonRefs > math.MaxInt64 {
			err = fmt.Errorf("nonref count %d overflows int64", nonRefs)
		}
		if err != nil {
			return fmt.Errorf("stiu: sidecar interval %d nonrefs: %w", id, err)
		}
		iv.NonRefs = int64(nonRefs)
		if err = r.layout(&iv.layout, nbits); err != nil {
			return fmt.Errorf("stiu: sidecar interval %d regions: %w", id, err)
		}
		resident += iv.occ.sizeBytes()
		ix.Intervals[id] = iv
	}
	ix.intervalBytes = int64(r.off - start)

	if r.remaining() != 0 {
		return fmt.Errorf("stiu: sidecar has %d trailing bytes", r.remaining())
	}
	ix.succinctBytes.Store(int64(resident))
	return nil
}

// directory slices one fixed-width u32 offset directory and the blob it
// spans; per-entry monotonicity is checked lazily by dirSpan.
func (r *sidecarReader) directory(n int) (dir, blob []byte, err error) {
	dir, err = r.take((n + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint32(dir) != 0 {
		return nil, nil, fmt.Errorf("directory does not start at offset 0")
	}
	blob, err = r.take(int(binary.LittleEndian.Uint32(dir[4*n:])))
	if err != nil {
		return nil, nil, err
	}
	return dir, blob, nil
}

// dirSpan returns a reader over entry j of a directory's blob.
func dirSpan(dir, blob []byte, j int) (*sidecarReader, error) {
	lo := int(binary.LittleEndian.Uint32(dir[4*j:]))
	hi := int(binary.LittleEndian.Uint32(dir[4*j+4:]))
	if lo > hi || hi > len(blob) {
		return nil, fmt.Errorf("directory span [%d,%d) overflows blob of %d bytes", lo, hi, len(blob))
	}
	return &sidecarReader{data: blob[lo:hi:hi]}, nil
}

// layout parses one bucket layout into l: verified bitvector,
// length-prefixed bucket blob.  Slicing and verification only — the
// buckets and their boundaries stay encoded until the first bucket decode
// (bucketBounds).
func (r *sidecarReader) layout(l *layout, universe int) error {
	occ, err := r.bitvec(universe)
	if err != nil {
		return err
	}
	blob, err := r.lenPrefixed()
	if err != nil {
		return err
	}
	if len(blob) < occ.npop || (occ.npop == 0 && len(blob) != 0) {
		return fmt.Errorf("bucket blob of %d bytes cannot hold %d buckets", len(blob), occ.npop)
	}
	l.occ, l.bounds.data = occ, blob
	l.decoded = make([]atomic.Pointer[RegionBucket], occ.npop)
	return nil
}

// bucketBounds derives the npop+1 bucket boundaries of a layout's blob in
// one pass: per bucket it reads the tuple count and steps over each
// tuple's code and, when its exception bit is set, its explicit pair.
// The pass must consume exactly the blob in exactly npop buckets;
// anything else is corruption.
func bucketBounds(blob []byte, npop int) ([]uint32, error) {
	if len(blob) > math.MaxUint32 {
		return nil, fmt.Errorf("bucket blob exceeds u32 offset space (%d bytes)", len(blob))
	}
	offs := make([]uint32, npop+1)
	r := &sidecarReader{data: blob}
	for k := 1; k <= npop; k++ {
		nr, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("bucket %d: %w", k-1, err)
		}
		if nr > uint64(r.remaining()) {
			return nil, fmt.Errorf("bucket %d: ref count %d overflows blob", k-1, nr)
		}
		for i := 0; i < int(nr); i++ {
			code, err := r.uvarint()
			if err == nil && code&tupleException != 0 {
				if _, err = r.uvarint(); err == nil {
					_, err = r.uvarint()
				}
			}
			if err != nil {
				return nil, fmt.Errorf("bucket %d: %w", k-1, err)
			}
		}
		offs[k] = uint32(r.off)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("bucket blob has %d bytes past its %d buckets", r.remaining(), npop)
	}
	return offs, nil
}

// decodeTemporalEntries reads one trajectory's temporal section (count +
// delta-coded entries).  An ordinal must be a non-negative int32 and a
// position an int32 of at least −1.
func decodeTemporalEntries(r *sidecarReader) ([]TemporalEntry, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("count %d overflows buffer", n)
	}
	entries := make([]TemporalEntry, n)
	prev := int64(0)
	for i := range entries {
		var start int64
		if i == 0 {
			start, err = r.varint()
		} else {
			var d uint64
			d, err = r.uvarint()
			start = prev + int64(d)
		}
		if err == nil {
			prev = start
			var no, pos int64
			no, err = r.varint()
			if err == nil {
				pos, err = r.varint()
			}
			if err == nil && (no < 0 || no > math.MaxInt32 || pos < -1 || pos > math.MaxInt32) {
				err = fmt.Errorf("entry %d: ordinal %d or position %d out of range", i, no, pos)
			}
			entries[i] = TemporalEntry{Start: start, No: int32(no), Pos: int32(pos)}
		}
		if err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// intervalCount reads the interval-section count with an overflow guard.
func (r *sidecarReader) intervalCount() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("count %d overflows buffer", n)
	}
	return int(n), nil
}

// intervalID decodes the next id of the interleaved ascending interval-id
// stream: a varint for the first interval, uvarint deltas after.
func (r *sidecarReader) intervalID(first bool, prev *int64) (int, error) {
	var id int64
	var err error
	if first {
		id, err = r.varint()
	} else {
		var d uint64
		d, err = r.uvarint()
		id = *prev + int64(d)
	}
	if err != nil {
		return 0, err
	}
	*prev = id
	return int(id), nil
}

// --- group table and region bucket codecs ---

// refGroup is one group-table entry: a reference group of the interval
// and its modal probability pair, the (pTotal, pMax) most of the group's
// tuples carry.
type refGroup struct {
	traj, orig   int32
	pTotal, pMax float32
}

// findGroup returns the index of (traj, orig) in a group table.
func findGroup(groups []refGroup, traj, orig int32) (int, bool) {
	return slices.BinarySearchFunc(groups, refGroup{traj: traj, orig: orig}, func(g, key refGroup) int {
		return cmp.Or(cmp.Compare(g.traj, key.traj), cmp.Compare(g.orig, key.orig))
	})
}

// appendGroups emits one interval's length-prefixed group table: the
// entry count, then per entry the trajectory's rank in the candidate set
// trajs (the first absolute, later ones as deltas, 0 meaning the same
// trajectory), orig and the modal pTotal and pMax as counts of 2^-pExp.
func appendGroups(buf []byte, groups []refGroup, trajs []int32, pExp int) ([]byte, error) {
	table := binary.AppendUvarint(make([]byte, 0, 6*len(groups)+binary.MaxVarintLen64), uint64(len(groups)))
	rank := 0
	for _, g := range groups {
		prev := rank
		for rank < len(trajs) && trajs[rank] < g.traj {
			rank++
		}
		if rank == len(trajs) || trajs[rank] != g.traj {
			return nil, fmt.Errorf("group trajectory %d is not a candidate", g.traj)
		}
		table = binary.AppendUvarint(table, uint64(rank-prev))
		table = binary.AppendUvarint(table, uint64(g.orig))
		var err error
		if table, err = appendPair(table, g.pTotal, g.pMax, pExp); err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", g.traj, err)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	return append(buf, table...), nil
}

// decodeGroups decodes a group table against its interval's candidate
// set.  Every rank must fall inside the set and entries must ascend by
// (traj, orig), so a decoded table only names trajectories the interval
// holds and bucket tuples need no further trajectory check.
func decodeGroups(data []byte, cands []int32, pExp int) ([]refGroup, error) {
	r := &sidecarReader{data: data}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()/4) { // an entry is at least four bytes
		return nil, fmt.Errorf("group count %d overflows table", n)
	}
	groups := make([]refGroup, n)
	rank := uint64(0)
	for i := range groups {
		var d, orig, pt, pm uint64
		if d, err = r.uvarint(); err == nil {
			if orig, err = r.uvarint(); err == nil {
				if pt, err = r.uvarint(); err == nil {
					pm, err = r.uvarint()
				}
			}
		}
		if err != nil {
			return nil, err
		}
		if d >= uint64(len(cands)) || rank+d >= uint64(len(cands)) {
			return nil, fmt.Errorf("group %d: rank past candidate set of %d", i, len(cands))
		}
		rank += d
		if orig > math.MaxInt32 {
			return nil, fmt.Errorf("group %d: orig %d overflows int32", i, orig)
		}
		if i > 0 && d == 0 && int32(orig) <= groups[i-1].orig {
			return nil, fmt.Errorf("group %d: orig %d does not ascend", i, orig)
		}
		groups[i] = refGroup{cands[rank], int32(orig), dequantize(pt, pExp), dequantize(pm, pExp)}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("group table has %d trailing bytes", r.remaining())
	}
	return groups, nil
}

// Tuple code bits: a bucket tuple is one uvarint, the delta of its group
// index over the previous tuple's shifted past these two flags.
const (
	tupleEnters    = 1 << 0
	tupleException = 1 << 1 // an explicit (pTotal, pMax) follows
)

// appendBucket emits one region bucket, the unit the layout addresses
// individually: the ref-tuple count, then per tuple the code
// (index-prev-1)<<2 | exception<<1 | enters, where index is the tuple's
// entry in the interval's group table and prev the previous tuple's (−1
// before the first), and — only when the tuple's pair is not its group's
// modal pair — pTotal and pMax as counts of 2^-pExp.  Build emits a
// bucket's tuples in (traj, orig) order, so indices strictly ascend; a
// tuple out of that order, outside the table, or with a probability off
// the quantum is an error.
func appendBucket(buf []byte, b *RegionBucket, groups []refGroup, pExp int) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(b.Refs)))
	prev := -1
	for _, rt := range b.Refs {
		gi, ok := findGroup(groups, rt.Traj, rt.Orig)
		if !ok || gi <= prev {
			return nil, fmt.Errorf("tuple (%d, %d) is not the next group of the table", rt.Traj, rt.Orig)
		}
		code := uint64(gi-prev-1) << 2
		if rt.Enters {
			code |= tupleEnters
		}
		g := &groups[gi]
		if rt.PTotal != g.pTotal || rt.PMax != g.pMax {
			code |= tupleException
		}
		buf = binary.AppendUvarint(buf, code)
		if code&tupleException != 0 {
			var err error
			if buf, err = appendPair(buf, rt.PTotal, rt.PMax, pExp); err != nil {
				return nil, fmt.Errorf("trajectory %d: %w", rt.Traj, err)
			}
		}
		prev = gi
	}
	return buf, nil
}

// decodeBucket decodes one region bucket from exactly data against its
// interval's group table.
func decodeBucket(data []byte, groups []refGroup, pExp int) (*RegionBucket, error) {
	r := &sidecarReader{data: data}
	b := &RegionBucket{}
	nr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nr > uint64(r.remaining()) || nr > uint64(len(groups)) {
		return nil, fmt.Errorf("ref count %d overflows block", nr)
	}
	if nr > 0 {
		b.Refs = make([]RefTuple, nr)
	}
	prev := -1
	for k := range b.Refs {
		code, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if code>>2 >= uint64(len(groups)-prev-1) {
			return nil, fmt.Errorf("tuple %d: group index past table of %d", k, len(groups))
		}
		prev += int(code>>2) + 1
		g := &groups[prev]
		rt := RefTuple{Traj: g.traj, Orig: g.orig, Enters: code&tupleEnters != 0, PTotal: g.pTotal, PMax: g.pMax}
		if code&tupleException != 0 {
			var pt, pm uint64
			if pt, err = r.uvarint(); err == nil {
				pm, err = r.uvarint()
			}
			if err != nil {
				return nil, err
			}
			rt.PTotal, rt.PMax = dequantize(pt, pExp), dequantize(pm, pExp)
		}
		b.Refs[k] = rt
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("bucket has %d trailing bytes", r.remaining())
	}
	return b, nil
}

// appendPair emits pTotal and pMax as uvarint counts of 2^-pExp.  A
// probability that is not an exact multiple of the quantum is an error.
func appendPair(buf []byte, pTotal, pMax float32, pExp int) ([]byte, error) {
	for _, p := range [2]float32{pTotal, pMax} {
		q := math.Ldexp(float64(p), pExp)
		if !(q >= 0 && q < 1<<64 && q == math.Trunc(q)) {
			return nil, fmt.Errorf("probability %g is not a multiple of 2^-%d", p, pExp)
		}
		buf = binary.AppendUvarint(buf, uint64(q))
	}
	return buf, nil
}

// dequantize converts a quantum count back to the float32 it was taken
// from: a float32 has 24 significant bits, so its count is exact in
// float64.
func dequantize(q uint64, pExp int) float32 {
	return float32(math.Ldexp(float64(q), -pExp))
}

// --- Elias–Fano sorted-set codec ---

// efLowBits picks the low-bit width for n values over universe u, the
// standard ⌊log₂(u/n)⌋ split that bounds the encoding near 2+log₂(u/n)
// bits per value.
func efLowBits(u, n uint64) int {
	if n == 0 || u/n == 0 {
		return 0
	}
	return bits.Len64(u/n) - 1
}

// appendEFSet encodes a sorted slice of distinct non-negative int32s.
// Layout: uvarint n; if n>0: uvarint max, uvarint blobLen, blob.  The blob
// interleaves, per value, the unary-coded delta of its high bits with its
// fixed-width low bits.
func appendEFSet(buf []byte, vals []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	u := uint64(vals[len(vals)-1])
	buf = binary.AppendUvarint(buf, u)
	l := efLowBits(u, uint64(len(vals)))
	w := bitio.NewWriter(len(vals) * (l + 2))
	prevHigh := uint64(0)
	for _, v := range vals {
		high := uint64(v) >> l
		w.WriteUnary(int(high - prevHigh))
		prevHigh = high
		if l > 0 {
			w.WriteBits(uint64(v)&((1<<l)-1), l)
		}
	}
	blob := w.Bytes()
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

// efSet decodes one Elias–Fano set of trajectory ids, each below
// maxCount.
func (r *sidecarReader) efSet(maxCount int) ([]int32, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(maxCount) {
		return nil, fmt.Errorf("set of %d values exceeds trajectory count %d", n, maxCount)
	}
	u, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	blob, err := r.lenPrefixed()
	if err != nil {
		return nil, err
	}
	l := efLowBits(u, n)
	br := bitio.NewReader(blob)
	out := make([]int32, n)
	prevHigh := uint64(0)
	for i := range out {
		d, err := br.ReadUnary()
		if err != nil {
			return nil, err
		}
		prevHigh += uint64(d)
		low := uint64(0)
		if l > 0 {
			low, err = br.ReadBits(l)
			if err != nil {
				return nil, err
			}
		}
		v := prevHigh<<l | low
		if v > u {
			return nil, fmt.Errorf("set value %d exceeds declared max %d", v, u)
		}
		if v >= uint64(maxCount) || (i > 0 && v <= uint64(out[i-1])) {
			return nil, fmt.Errorf("set value %d is not the next trajectory of %d", v, maxCount)
		}
		out[i] = int32(v)
	}
	return out, nil
}

// efSlice returns the raw bytes of one Elias–Fano set without decoding
// it, so a candidate set can stay on the buffer until first touch.
func (r *sidecarReader) efSlice() ([]byte, error) {
	start := r.off
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if _, err := r.uvarint(); err != nil { // max value
			return nil, err
		}
		if _, err := r.lenPrefixed(); err != nil { // unary/low-bit blob
			return nil, err
		}
	}
	return r.data[start:r.off:r.off], nil
}

// --- bounds-checked byte reader ---

type sidecarReader struct {
	data []byte
	off  int
}

func (r *sidecarReader) remaining() int { return len(r.data) - r.off }

func (r *sidecarReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *sidecarReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// take returns the next n bytes as a capacity-clamped subslice.
func (r *sidecarReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("block of %d bytes overflows buffer at offset %d", n, r.off)
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// lenPrefixed returns a subslice for a uvarint-length-prefixed block.
func (r *sidecarReader) lenPrefixed() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("block of %d bytes overflows buffer at offset %d", n, r.off)
	}
	return r.take(int(n))
}
