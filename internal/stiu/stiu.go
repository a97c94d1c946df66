// Package stiu implements the Spatio-temporal Information based Uncertain
// Trajectory Index of Section 5.2.
//
// The temporal part partitions the day into equal intervals and stores, per
// trajectory and interval, a tuple (t.start, t.no, t.pos): the earliest
// timestamp falling in the interval, its ordinal in T, and the bit position
// in T̂ where decoding can resume (partial decompression).
//
// The spatial part partitions the road network with a uniform grid and
// stores, per interval and region, one tuple (traj, orig, enters, ptotal,
// pmax) per reference group, and per interval the number of non-reference
// tuples Definition 9 would add.  ptotal and pmax drive the filtering
// Lemmas 1-4; enters is the paper's fv.id ≠ ∞.  The position fields
// (fv.no, d.pos, ma.pos) and the non-reference tuples themselves are not
// stored: queries decode each instance from its start, so nothing would
// read them.
//
// An Index has one in-memory form, the succinct sidecar layout of
// FORMAT.md §5: occupancy bitvectors and directories over one encoded
// buffer, with per-interval group tables and bucket boundaries decoded
// on first touch and a per-bucket decode cache in front of them.  A
// group table stores each reference group of an interval once, with its
// modal probability pair, and a bucket tuple names its group by index.
// DecodeSidecar parses that buffer and leaves every section encoded
// until a query touches it; Build encodes what its walk produced, parses
// the result the same way and seeds the decode caches with the
// structures it already holds, so a built index never decodes anything.
package stiu

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"utcq/internal/roadnet"
)

// Options control the index granularity (Table 7 defaults: a 64×64 grid
// and 30-minute intervals).
type Options struct {
	GridNX, GridNY int
	IntervalDur    int64 // seconds

	// Parallelism bounds the worker pool used by Build: 1 builds strictly
	// serially, N uses N workers, values below 1 use one worker per CPU.
	// The built index is identical across all settings.
	Parallelism int
}

// DefaultOptions returns the paper's default granularity.
func DefaultOptions() Options {
	return Options{GridNX: 64, GridNY: 64, IntervalDur: 1800}
}

// TemporalEntry is one (t.start, t.no, t.pos) tuple.
type TemporalEntry struct {
	Start int64
	No    int32
	Pos   int32 // bit position of the code of timestamp No+1; -1 at the end
}

// RefTuple is the spatial tuple of a reference group w.r.t. one region.
type RefTuple struct {
	Traj int32
	Orig int32
	// Enters reports whether the reference itself enters the region; false
	// is the paper's fv.id = ∞ case (only its non-references do).
	Enters bool
	PTotal float32
	PMax   float32
}

// RegionBucket groups the reference tuples of one (interval, region)
// pair.
type RegionBucket struct {
	Refs []RefTuple
}

// layout is one succinct bucket group (FORMAT.md §5.3): occupancy is a
// rank bitvector over the grid cells, so a probe of an absent region
// answers with one bit test, and a present region decodes just its own
// bucket into the decoded cache.  The bucket boundaries are not stored:
// the layout's first bucket decode derives all of them in one pass over
// the blob.  The bytes alias the index buffer.
type layout struct {
	occ     bitvec
	bounds  lazyBlock // data = concatenated per-region bucket encodings, rank order
	offs    []uint32  // npop+1 bucket boundaries into bounds.data, set by the pass
	decoded []atomic.Pointer[RegionBucket]
}

// Interval is one time partition.
type Interval struct {
	// Trajs caches the trajectories whose time span intersects the
	// interval; nil until Candidates decodes the Elias–Fano set.
	Trajs []int32
	// NonRefs counts the non-reference tuples Definition 9 would store in
	// the interval's buckets; only the size accounting reads it.
	NonRefs int64
	cand    lazyBlock // data = EF candidate-set bytes
	// groups caches the decoded group table; nil until the first bucket
	// decode in the interval.
	groups []refGroup
	grp    lazyBlock // data = group-table bytes
	layout
}

// lazyBlock defers decoding of one section.  The done flag is the
// lock-free fast path: its release store happens after the decoded value
// is written under mu, so an acquire load observing true also observes it.
type lazyBlock struct {
	done atomic.Bool
	mu   sync.Mutex
	data []byte
	err  error
}

// Index is the StIU index over one archive.
type Index struct {
	Opts Options
	Grid *roadnet.Grid

	// Temporal caches trajectory j's interval entries, sorted by Start;
	// Temporal[j] is nil until the trajectory's first temporal touch — use
	// TemporalEntries.
	Temporal [][]TemporalEntry

	Intervals map[int]*Interval

	tempDir      []byte // (numTrajs+1) × u32 offsets into tempBlob
	tempBlob     []byte
	lazyTemporal []lazyBlock // parallel to Temporal

	// raw is the buffer every section aliases; EncodeSidecar returns it.
	raw []byte
	// pExp is the probability quantum exponent: stored probabilities are
	// counts of 2^-pExp.
	pExp int

	// Byte spans of the two sections in raw, fixed at parse.
	temporalBytes, intervalBytes int64

	// Observability (Stats): how often the occupancy bitvectors answered
	// without decoding vs. how many buckets and temporal sections were
	// actually decoded, plus the resident footprint of the directories,
	// bitvectors and derived bucket boundaries.
	regionsDecoded atomic.Int64
	prunedNoTouch  atomic.Int64
	temporalForced atomic.Int64
	succinctBytes  atomic.Int64
}

// IndexStats is a snapshot of the succinct-layer counters.
type IndexStats struct {
	// RegionBlocksDecoded counts (interval, region) buckets decoded from
	// the index bytes; RegionPrunedNoTouch counts cells the occupancy
	// bitvectors answered empty without decoding: one per empty Buckets
	// probe, and per AppendBucketsInRect the empty cells of its span,
	// added once per query.
	RegionBlocksDecoded int64
	RegionPrunedNoTouch int64
	// TemporalSectionsForced counts per-trajectory temporal sections
	// decoded on first touch (always 0 right after a decode or a build).
	TemporalSectionsForced int64
	// SuccinctBytes is the resident footprint of the succinct structures:
	// the temporal offset directory, the occupancy bitvectors (words +
	// rank superblocks) and the bucket boundary tables derived so far.
	SuccinctBytes int64
	// TemporalBytes and IntervalBytes split the sidecar body by section;
	// they sum to its length minus the 36-byte header.
	TemporalBytes int64
	IntervalBytes int64
}

// Add accumulates o into s.
func (s *IndexStats) Add(o IndexStats) {
	s.RegionBlocksDecoded += o.RegionBlocksDecoded
	s.RegionPrunedNoTouch += o.RegionPrunedNoTouch
	s.TemporalSectionsForced += o.TemporalSectionsForced
	s.SuccinctBytes += o.SuccinctBytes
	s.TemporalBytes += o.TemporalBytes
	s.IntervalBytes += o.IntervalBytes
}

// Stats returns the succinct-layer counters.  Safe to call concurrently
// with queries.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		RegionBlocksDecoded:    ix.regionsDecoded.Load(),
		RegionPrunedNoTouch:    ix.prunedNoTouch.Load(),
		TemporalSectionsForced: ix.temporalForced.Load(),
		SuccinctBytes:          ix.succinctBytes.Load(),
		TemporalBytes:          ix.temporalBytes,
		IntervalBytes:          ix.intervalBytes,
	}
}

// IntervalOf returns the time-partition id of t.
func (ix *Index) IntervalOf(t int64) int { return int(t / ix.Opts.IntervalDur) }

// TemporalEntries returns trajectory j's interval entries, decoding its
// temporal section on first touch.  Warm calls are a single atomic load
// and never allocate.
func (ix *Index) TemporalEntries(j int) ([]TemporalEntry, error) {
	lz := &ix.lazyTemporal[j]
	if !lz.done.Load() {
		if err := ix.forceTemporal(j); err != nil {
			return nil, err
		}
	} else if lz.err != nil {
		return nil, lz.err
	}
	return ix.Temporal[j], nil
}

// forceTemporal decodes trajectory j's temporal section from the offset
// directory.
func (ix *Index) forceTemporal(j int) error {
	lz := &ix.lazyTemporal[j]
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if lz.done.Load() {
		return lz.err
	}
	r, err := dirSpan(ix.tempDir, ix.tempBlob, j)
	if err == nil {
		var entries []TemporalEntry
		if entries, err = decodeTemporalEntries(r); err == nil && r.remaining() != 0 {
			err = fmt.Errorf("%d trailing bytes", r.remaining())
		}
		if err == nil {
			ix.Temporal[j] = entries
			ix.temporalForced.Add(1)
		}
	}
	if err != nil {
		lz.err = fmt.Errorf("stiu: sidecar temporal[%d]: %w", j, err)
	}
	lz.done.Store(true)
	return lz.err
}

// FindTemporal returns trajectory j's entry with the greatest Start <= t
// (the binary search of Example 3).
func (ix *Index) FindTemporal(j int, t int64) (TemporalEntry, bool) {
	entries, err := ix.TemporalEntries(j)
	if err != nil {
		return TemporalEntry{}, false
	}
	lo := sort.Search(len(entries), func(i int) bool { return entries[i].Start > t })
	if lo == 0 {
		return TemporalEntry{}, false
	}
	return entries[lo-1], true
}

// FindTemporalByNo returns trajectory j's entry with the greatest No <= k,
// used to resume timestamp decoding near point index k.
func (ix *Index) FindTemporalByNo(j, k int) (TemporalEntry, bool) {
	entries, err := ix.TemporalEntries(j)
	if err != nil {
		return TemporalEntry{}, false
	}
	lo := sort.Search(len(entries), func(i int) bool { return int(entries[i].No) > k })
	if lo == 0 {
		return TemporalEntry{}, false
	}
	return entries[lo-1], true
}

// Buckets returns the bucket of (interval, region), or nil.  An absent
// region answers from the occupancy bitvector without decoding anything;
// a present region decodes only its own bucket, once.  Concurrent decoders
// may duplicate the work; both results are identical and the last store
// wins.  The only error source is a corrupt sidecar.
func (ix *Index) Buckets(interval int, re roadnet.RegionID) (*RegionBucket, error) {
	iv := ix.Intervals[interval]
	if iv == nil {
		return nil, nil
	}
	l := &iv.layout
	if uint(re) >= uint(l.occ.nbits) || !l.occ.get(int(re)) {
		ix.prunedNoTouch.Add(1)
		return nil, nil
	}
	return ix.bucketAt(iv, l.occ.rank1(int(re)))
}

// AppendBucketsInRect appends to dst the buckets of the interval's
// occupied cells that rect intersects, in CellsInRect order: the same
// buckets, in the same order, as the non-nil Buckets(interval, c) over
// Grid.CellsInRect(rect).  It reads the interval map once, walks each
// grid row's bit range of the occupancy words with one rank at the row's
// first set bit, and counts the span's empty cells into
// RegionPrunedNoTouch with one add, so the counters move exactly as the
// per-cell probes would.  After an error dst holds the buckets found so
// far and the empty cells are not counted.
func (ix *Index) AppendBucketsInRect(dst []*RegionBucket, interval int, rect roadnet.Rect) ([]*RegionBucket, error) {
	iv := ix.Intervals[interval]
	if iv == nil {
		return dst, nil
	}
	x0, y0, x1, y1 := ix.Grid.CellSpan(rect)
	if x0 > x1 || y0 > y1 {
		return dst, nil
	}
	nx, _ := ix.Grid.Dims()
	l := &iv.layout
	n0 := len(dst)
	for cy := y0; cy <= y1; cy++ {
		lo, hi := cy*nx+x0, min(cy*nx+x1+1, l.occ.nbits) // bit range [lo, hi)
		k := -1
		for w := lo >> 6; w<<6 < hi; w++ {
			v := l.occ.word(w)
			if w<<6 < lo {
				v &^= 1<<(uint(lo)&63) - 1
			}
			if hi < (w+1)<<6 {
				v &= 1<<(uint(hi)&63) - 1
			}
			for ; v != 0; v &= v - 1 {
				if k < 0 {
					k = l.occ.rank1(w<<6 + bits.TrailingZeros64(v))
				} else {
					k++
				}
				b, err := ix.bucketAt(iv, k)
				if err != nil {
					return dst, err
				}
				dst = append(dst, b)
			}
		}
	}
	ix.prunedNoTouch.Add(int64((x1-x0+1)*(y1-y0+1) - (len(dst) - n0)))
	return dst, nil
}

// bucketAt returns the bucket in rank slot k of iv's layout, decoding it
// on first touch.
func (ix *Index) bucketAt(iv *Interval, k int) (*RegionBucket, error) {
	l := &iv.layout
	if b := l.decoded[k].Load(); b != nil {
		return b, nil
	}
	if !l.bounds.done.Load() {
		if err := ix.forceBounds(l); err != nil {
			return nil, err
		}
	} else if l.bounds.err != nil {
		return nil, l.bounds.err
	}
	if !iv.grp.done.Load() {
		if err := ix.forceGroups(iv); err != nil {
			return nil, err
		}
	} else if iv.grp.err != nil {
		return nil, iv.grp.err
	}
	lo, hi := l.offs[k], l.offs[k+1]
	b, err := decodeBucket(l.bounds.data[lo:hi:hi], iv.groups, ix.pExp)
	if err != nil {
		return nil, fmt.Errorf("stiu: bucket %d: %w", k, err)
	}
	l.decoded[k].Store(b)
	ix.regionsDecoded.Add(1)
	return b, nil
}

// forceBounds derives l's bucket boundaries from its blob.
func (ix *Index) forceBounds(l *layout) error {
	l.bounds.mu.Lock()
	defer l.bounds.mu.Unlock()
	if l.bounds.done.Load() {
		return l.bounds.err
	}
	offs, err := bucketBounds(l.bounds.data, l.occ.npop)
	if err != nil {
		l.bounds.err = fmt.Errorf("stiu: bucket boundaries: %w", err)
	} else {
		l.offs = offs
		ix.succinctBytes.Add(int64(4 * len(offs)))
	}
	l.bounds.done.Store(true)
	return l.bounds.err
}

// Candidates returns the trajectories active in the interval, decoding
// the interval's Elias–Fano candidate set on first touch.
func (ix *Index) Candidates(interval int) ([]int32, error) {
	iv := ix.Intervals[interval]
	if iv == nil {
		return nil, nil
	}
	return ix.candidates(iv)
}

func (ix *Index) candidates(iv *Interval) ([]int32, error) {
	if !iv.cand.done.Load() {
		if err := ix.forceCandidates(iv); err != nil {
			return nil, err
		}
	} else if iv.cand.err != nil {
		return nil, iv.cand.err
	}
	return iv.Trajs, nil
}

func (ix *Index) forceCandidates(iv *Interval) error {
	iv.cand.mu.Lock()
	defer iv.cand.mu.Unlock()
	if iv.cand.done.Load() {
		return iv.cand.err
	}
	r := &sidecarReader{data: iv.cand.data}
	trajs, err := r.efSet(len(ix.Temporal))
	if err == nil && r.remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.remaining())
	}
	if err != nil {
		iv.cand.err = fmt.Errorf("stiu: sidecar candidate set: %w", err)
	} else {
		iv.Trajs = trajs
	}
	iv.cand.done.Store(true)
	return iv.cand.err
}

// forceGroups decodes iv's group table, decoding its candidate set first:
// the table names trajectories by their rank in it.
func (ix *Index) forceGroups(iv *Interval) error {
	cands, err := ix.candidates(iv)
	iv.grp.mu.Lock()
	defer iv.grp.mu.Unlock()
	if iv.grp.done.Load() {
		return iv.grp.err
	}
	if err == nil {
		iv.groups, err = decodeGroups(iv.grp.data, cands, ix.pExp)
	}
	if err != nil {
		iv.grp.err = fmt.Errorf("stiu: group table: %w", err)
	}
	iv.grp.done.Store(true)
	return iv.grp.err
}

// Bounds returns a conservative bounding rectangle of the indexed
// geometry: the union of every grid cell an interval's occupancy
// bitvector marks.  Cells cover the full edge geometry, so no position of
// any instance lies outside it.  An index with no occupied cell returns
// an inverted rectangle that intersects nothing.
func (ix *Index) Bounds() roadnet.Rect {
	out := roadnet.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
	empty := true
	for _, iv := range ix.Intervals {
		iv.occ.forEach(func(_, re int) {
			cr := ix.Grid.CellRect(roadnet.RegionID(re))
			if empty {
				out, empty = cr, false
				return
			}
			out.MinX = math.Min(out.MinX, cr.MinX)
			out.MinY = math.Min(out.MinY, cr.MinY)
			out.MaxX = math.Max(out.MaxX, cr.MaxX)
			out.MaxY = math.Max(out.MaxY, cr.MaxY)
		})
	}
	return out
}

// Tuple bit widths used for index size accounting (Fig 9): temporal
// entries store a 17-bit seconds-of-day start, a 12-bit ordinal and a
// 32-bit stream position; spatial tuples are counted as Definition 9 lays
// them out, with vertex ids, 12-bit ordinals, 32-bit positions and 16-bit
// probability summaries, although the index stores fewer fields.
const (
	startBits = 17
	noBits    = 12
	posBits   = 32
	probBits  = 16
)

// TemporalSizeBits returns the temporal index size, decoding untouched
// sections so the accounting covers every trajectory.
func (ix *Index) TemporalSizeBits() int64 {
	n := int64(0)
	for j := range ix.Temporal {
		entries, err := ix.TemporalEntries(j)
		if err != nil {
			return 0
		}
		n += int64(len(entries)) * (startBits + noBits + posBits)
	}
	return n
}

// SpatialSizeBits returns the spatial index size, given the vertex id
// width of the archive.  Every occupied bucket is read so the accounting
// covers untouched intervals.
func (ix *Index) SpatialSizeBits(vertexBits int) int64 {
	n := int64(0)
	failed := false
	for id, iv := range ix.Intervals {
		n += iv.NonRefs * int64(vertexBits+noBits+posBits)
		iv.occ.forEach(func(_, re int) {
			b, err := ix.Buckets(id, roadnet.RegionID(re))
			if err != nil {
				failed = true
				return
			}
			n += int64(len(b.Refs)) * int64(vertexBits+1+noBits+posBits+2*probBits)
		})
	}
	if failed {
		return 0
	}
	return n
}
