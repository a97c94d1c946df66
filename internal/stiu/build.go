package stiu

import (
	"fmt"
	"slices"
	"sort"

	"utcq/internal/core"
	"utcq/internal/par"
	"utcq/internal/roadnet"
)

// buildState is what Build's walk and merge produce before encoding: the
// per-trajectory temporal entries and the per-interval cells.  It lives
// only as long as Build; the index keeps its structures as the seeded
// decode caches.
type buildState struct {
	temporal  [][]TemporalEntry
	intervals map[int]*builtInterval
}

// builtInterval is one interval's cell contents during a build.
type builtInterval struct {
	trajs   []int32 // trajectories whose time span intersects the interval
	regions map[roadnet.RegionID]*RegionBucket
	nonRefs int64      // non-reference tuples over all regions
	groups  []refGroup // group table: (traj, orig) order, modal pairs
}

// Build constructs the index from a compressed archive.  Building happens
// at compression time (the paper builds StIU "during compression"), so it
// may decode records freely.
//
// Construction has two phases.  The walk phase decodes each trajectory's
// instance traversals and produces a per-trajectory tuple batch; walks are
// independent, so they run on a bounded worker pool (Options.Parallelism).
// The merge phase folds the batches into the grid/interval cells, sharded
// by interval id so shards never touch the same cell.  Both phases apply
// batches in trajectory order, so the index is identical to a serial build.
// The result is then encoded in the sidecar layout, parsed back as
// DecodeSidecar would, and its decode caches are seeded with the built
// structures.
func Build(a *core.Archive, opts Options) (*Index, error) {
	if opts.GridNX < 1 || opts.GridNY < 1 || opts.IntervalDur < 1 {
		return nil, fmt.Errorf("stiu: invalid options %+v", opts)
	}
	n := len(a.Trajs)
	ix := &Index{Opts: opts, Grid: roadnet.NewGrid(a.Graph, opts.GridNX, opts.GridNY), pExp: a.PCodec.MaxLen()}
	st := &buildState{temporal: make([][]TemporalEntry, n)}
	workers := par.Workers(opts.Parallelism)

	// Walk phase: per-trajectory batches, plus the trajectory's temporal
	// entries, which no other worker touches.
	batches := make([]*trajBatch, n)
	err := par.Do(workers, n, func(j int) error {
		b, err := ix.walkTrajectory(a, j)
		if err != nil {
			return fmt.Errorf("stiu: trajectory %d: %w", j, err)
		}
		batches[j] = b
		st.temporal[j] = b.temporal
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.intervals = mergeBatches(batches, workers)
	for _, iv := range st.intervals {
		sort.Slice(iv.trajs, func(x, y int) bool { return iv.trajs[x] < iv.trajs[y] })
		iv.trajs = dedupInt32(iv.trajs)
	}

	data, err := st.encode(opts, ix.pExp, workers)
	if err != nil {
		return nil, err
	}
	if err := ix.parse(data, n); err != nil {
		return nil, err
	}
	ix.seed(st)
	return ix, nil
}

// seed fills every decode cache of a freshly parsed index with the
// structures the build already holds, so queries on a built index never
// decode a section: they read exactly what DecodeSidecar's lazy paths
// would produce from the same bytes.
func (ix *Index) seed(st *buildState) {
	for id, biv := range st.intervals {
		iv := ix.Intervals[id]
		iv.Trajs = biv.trajs
		iv.cand.done.Store(true)
		iv.groups = biv.groups
		iv.grp.done.Store(true)
		iv.occ.forEach(func(k, re int) { iv.decoded[k].Store(biv.regions[roadnet.RegionID(re)]) })
	}
	for j, entries := range st.temporal {
		ix.Temporal[j] = entries
		ix.lazyTemporal[j].done.Store(true)
	}
}

// mergeBatches folds the walk batches into interval cells.  Each shard
// owns the intervals with id ≡ shard (mod shards) and applies every batch
// in trajectory order, so no two shards write the same cell and the tuple
// order within each cell matches a serial build exactly.
func mergeBatches(batches []*trajBatch, shards int) map[int]*builtInterval {
	if shards < 1 {
		shards = 1
	}
	mod := func(iv int) int { return ((iv % shards) + shards) % shards }
	parts := make([]map[int]*builtInterval, shards)
	// Shard counts are small; par.Do with error-free work never fails.
	_ = par.Do(shards, shards, func(s int) error {
		m := make(map[int]*builtInterval)
		get := func(id int) *builtInterval {
			iv := m[id]
			if iv == nil {
				iv = &builtInterval{regions: make(map[roadnet.RegionID]*RegionBucket)}
				m[id] = iv
			}
			return iv
		}
		for j, b := range batches {
			for iv := b.firstIv; iv <= b.lastIv; iv++ {
				if mod(iv) == s {
					in := get(iv)
					in.trajs = append(in.trajs, int32(j))
				}
			}
			for _, e := range b.emits {
				if mod(e.interval) != s {
					continue
				}
				in := get(e.interval)
				bk := in.regions[e.re]
				if bk == nil {
					bk = &RegionBucket{}
					in.regions[e.re] = bk
				}
				if e.isRef {
					bk.Refs = append(bk.Refs, e.ref)
				} else {
					in.nonRefs++
				}
			}
			// Batches come in trajectory order and a batch's groups in
			// reference order, so each table is in (traj, orig) order.
			for _, g := range b.groups {
				if mod(g.interval) == s {
					in := get(g.interval)
					in.groups = append(in.groups, g.group)
				}
			}
		}
		parts[s] = m
		return nil
	})
	out := make(map[int]*builtInterval)
	for _, m := range parts {
		for id, iv := range m {
			out[id] = iv
		}
	}
	return out
}

func dedupInt32(xs []int32) []int32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// instWalk is the decoded traversal of one instance used during index
// construction: its region visits.
type instWalk struct {
	orig    int
	refOrig int // -1 for references
	p       float64
	visits  []visit
}

// visit is one region entry event.
type visit struct {
	re       roadnet.RegionID
	first    bool // the instance starts in this region
	factor   int  // E factor of the edge arriving at the final vertex (non-references)
	pointIdx int  // last point index at or before entering
}

// trajBatch is the output of one trajectory's walk phase: everything the
// merge phase needs to fold the trajectory into the index.  Batches are
// produced in parallel (one worker per trajectory) and merged in
// trajectory order, so the built index is identical to a serial build.
type trajBatch struct {
	temporal        []TemporalEntry
	firstIv, lastIv int // interval span covered by the trajectory
	emits           []spatialEmit
	groups          []groupEmit
}

// spatialEmit is one tuple destined for an (interval, region) cell: a
// reference tuple to append, or a non-reference tuple to count.
type spatialEmit struct {
	interval int
	re       roadnet.RegionID
	isRef    bool
	ref      RefTuple
}

// groupEmit is one group-table entry destined for an interval.
type groupEmit struct {
	interval int
	group    refGroup
}

// pairCount counts the tuples of one group in one interval that carry
// one (pTotal, pMax) pair.
type pairCount struct {
	group groupEmit
	n     int
}

// countPair counts one more tuple of g's group carrying g's pair in g's
// interval.
func countPair(counts []pairCount, g groupEmit) []pairCount {
	i := slices.IndexFunc(counts, func(c pairCount) bool { return c.group == g })
	if i < 0 {
		i, counts = len(counts), append(counts, pairCount{group: g})
	}
	counts[i].n++
	return counts
}

// beats reports whether c is the better modal pair than d of the same
// group and interval: more tuples, or as many and a smaller pair.
func (c *pairCount) beats(d pairCount) bool {
	cg, dg := &c.group.group, &d.group.group
	if c.n != d.n {
		return c.n > d.n
	}
	return cg.pTotal < dg.pTotal || cg.pTotal == dg.pTotal && cg.pMax < dg.pMax
}

// appendModalGroups appends one group's table entries to dst, one per
// interval in counts, each with the pair that beats the group's other
// pairs there.  It consumes counts.
func appendModalGroups(dst []groupEmit, counts []pairCount) []groupEmit {
	for i, c := range counts {
		if c.n == 0 {
			continue // folded into an earlier entry of its interval
		}
		for k := i + 1; k < len(counts); k++ {
			if d := &counts[k]; d.group.interval == c.group.interval {
				if d.beats(c) {
					c = *d
				}
				d.n = 0
			}
		}
		dst = append(dst, c.group)
	}
	return dst
}

// walkTrajectory decodes trajectory j and produces its tuple batch.  It
// only reads the archive (never the index maps), so any number of walks
// may run concurrently.
func (ix *Index) walkTrajectory(a *core.Archive, j int) (*trajBatch, error) {
	rec := a.Trajs[j]
	b := &trajBatch{}

	// Temporal entries: one per interval the trajectory has samples in,
	// each resuming at the cursor's position.
	cur, err := rec.TimeCursorStart(a.Opts.Ts)
	if err != nil {
		return nil, err
	}
	T := make([]int64, 0, rec.NumPoints)
	lastInterval := -1
	for ok := true; ok; ok = cur.Next() {
		t := cur.T()
		if iv := ix.IntervalOf(t); iv != lastInterval {
			b.temporal = append(b.temporal, TemporalEntry{Start: t, No: int32(cur.Index()), Pos: int32(cur.Pos())})
			lastInterval = iv
		}
		T = append(T, t)
	}
	if len(T) != rec.NumPoints {
		return nil, fmt.Errorf("stiu: decoded %d of %d timestamps", len(T), rec.NumPoints)
	}
	b.firstIv, b.lastIv = ix.IntervalOf(T[0]), ix.IntervalOf(T[len(T)-1])

	// Walk every instance off the bitstream, references first.
	walks := make([]*instWalk, 0, len(rec.Insts))
	var c core.InstReader
	for _, refs := range []bool{true, false} {
		for orig, meta := range rec.Insts {
			if (meta.RefOrig < 0) != refs {
				continue
			}
			if err := c.Reset(a, j, orig); err != nil {
				return nil, err
			}
			w, err := ix.walkInstance(a.Graph, &c, rec.NumPoints)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", orig, err)
			}
			w.orig, w.refOrig, w.p = orig, meta.RefOrig, c.P()
			walks = append(walks, w)
		}
	}

	// Group instances by reference (a reference group = Ref ∪ Ref.Rrs) and
	// emit groups in ascending reference order so tuple order — and hence
	// the whole index — is deterministic.
	groups := make(map[int][]*instWalk)
	var groupKeys []int
	for _, w := range walks {
		g := w.orig
		if w.refOrig >= 0 {
			g = w.refOrig
		}
		if groups[g] == nil {
			groupKeys = append(groupKeys, g)
		}
		groups[g] = append(groups[g], w)
	}
	sort.Ints(groupKeys)
	b.groups = make([]groupEmit, 0, len(groupKeys)) // one entry per group and interval it touches, mostly one

	for _, refOrig := range groupKeys {
		ix.emitGroupTuples(b, j, refOrig, groups[refOrig], T)
	}
	return b, nil
}

// walkInstance reads the instance c is reset to and records its region
// visits with their entry factors and point counts.  An instance whose T'
// does not set exactly numPoints flags is an error.
func (ix *Index) walkInstance(g *roadnet.Graph, c *core.InstReader, numPoints int) (*instWalk, error) {
	w := &instWalk{}
	curVertex := c.SV()
	var curRegion roadnet.RegionID = roadnet.NoRegion
	lastEdgeFactor := 0 // E position 0 is in factor 0
	ones := 0
	var cells []roadnet.RegionID // scratch for each edge's regions
	for !c.Done() {
		no, flag, err := c.Next()
		if err != nil {
			return nil, err
		}
		if no != 0 {
			e, ok := g.OutEdge(curVertex, int(no))
			if !ok {
				return nil, fmt.Errorf("stiu: no outgoing edge %d at vertex %d", no, curVertex)
			}
			prevEdgeFactor := lastEdgeFactor
			lastEdgeFactor = c.Factor()
			curVertex = g.Edge(e).To
			cells = ix.Grid.AppendCellsOfEdge(cells[:0], g, e)
			for _, re := range cells {
				if re == curRegion {
					continue
				}
				if curRegion == roadnet.NoRegion {
					// First region: the instance starts here.
					w.visits = append(w.visits, visit{re: re, first: true})
				} else {
					w.visits = append(w.visits, visit{re: re, factor: prevEdgeFactor, pointIdx: max(ones-1, 0)})
				}
				curRegion = re
			}
		}
		if flag {
			ones++
		}
	}
	if ones != numPoints {
		return nil, fmt.Errorf("stiu: T' sets %d flags for %d points", ones, numPoints)
	}
	return w, nil
}

// emitGroupTuples aggregates the group's visits into per-(interval, region)
// reference tuples and non-reference counts, appending them to the batch's
// emit list.
func (ix *Index) emitGroupTuples(b *trajBatch, j, refOrig int, members []*instWalk, T []int64) {
	type key struct {
		interval int
		re       roadnet.RegionID
	}
	type agg struct {
		key
		member int  // 1 + the last member counted: Ω is a set, each instance counts once
		enters bool // the reference itself visits the region
		pTotal float64
		pMax   float64 // max non-reference probability (0 when none)
	}
	var aggs []agg // in first-visit order
	at := make(map[key]int)

	// A visit covers the intervals from its entry point's to the next
	// point's.
	span := func(v *visit) (int, int) {
		next := min(v.pointIdx+1, len(T)-1)
		return ix.IntervalOf(T[v.pointIdx]), ix.IntervalOf(T[next])
	}

	for mi, m := range members {
		for vi := range m.visits {
			v := &m.visits[vi]
			a0, a1 := span(v)
			for iv := a0; iv <= a1; iv++ {
				k := key{iv, v.re}
				x, ok := at[k]
				if !ok {
					x = len(aggs)
					at[k] = x
					aggs = append(aggs, agg{key: k})
				}
				ag := &aggs[x]
				if ag.member != mi+1 {
					ag.member = mi + 1
					ag.pTotal += m.p
					if m.refOrig >= 0 && m.p > ag.pMax {
						ag.pMax = m.p
					}
				}
				if m.refOrig < 0 {
					ag.enters = true
				}
			}
		}
	}

	// Reference tuples, and per interval the group's modal pair: the most
	// frequent over its tuples there, ties going to the smaller pair.
	counts := make([]pairCount, 0, 8)
	for _, ag := range aggs {
		rt := RefTuple{
			Traj:   int32(j),
			Orig:   int32(refOrig),
			Enters: ag.enters,
			PTotal: float32(ag.pTotal),
			PMax:   float32(ag.pMax),
		}
		b.emits = append(b.emits, spatialEmit{interval: ag.interval, re: ag.re, isRef: true, ref: rt})
		counts = countPair(counts, groupEmit{ag.interval, refGroup{rt.Traj, rt.Orig, rt.PTotal, rt.PMax}})
	}
	b.groups = appendModalGroups(b.groups, counts)

	// Non-reference tuples are counted under the factor-crossing rule: one
	// tuple per (instance, factor), kept for the first region traversed.
	// Visits come in walk order, so their factors never decrease.
	for _, m := range members {
		if m.refOrig < 0 {
			continue
		}
		lastFactor := -1
		for vi := range m.visits {
			v := &m.visits[vi]
			if !v.first {
				if v.factor == lastFactor {
					continue
				}
				lastFactor = v.factor
			}
			a0, a1 := span(v)
			for iv := a0; iv <= a1; iv++ {
				b.emits = append(b.emits, spatialEmit{interval: iv, re: v.re})
			}
		}
	}
}
