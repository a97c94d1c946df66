package stiu

import (
	"fmt"
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
	nonRefs int64 // non-reference tuples over all regions
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
// construction: edge-aligned entries, vertices, and region visits.
type instWalk struct {
	orig    int
	refOrig int // -1 for references
	p       float64
	visits  []visit
	factors []factorSpan // non-references only
}

// visit is one region entry event.
type visit struct {
	re       roadnet.RegionID
	first    bool // the instance starts in this region
	fvNo     int  // entry index of the edge arriving at the final vertex (0 when first)
	pointIdx int  // last point index at or before entering
}

// factorSpan maps E-entry offsets to factors of a non-reference.
type factorSpan struct {
	start, end int // entry offsets [start, end)
}

// trajBatch is the output of one trajectory's walk phase: everything the
// merge phase needs to fold the trajectory into the index.  Batches are
// produced in parallel (one worker per trajectory) and merged in
// trajectory order, so the built index is identical to a serial build.
type trajBatch struct {
	temporal        []TemporalEntry
	firstIv, lastIv int // interval span covered by the trajectory
	emits           []spatialEmit
}

// spatialEmit is one tuple destined for an (interval, region) cell: a
// reference tuple to append, or a non-reference tuple to count.
type spatialEmit struct {
	interval int
	re       roadnet.RegionID
	isRef    bool
	ref      RefTuple
}

// walkTrajectory decodes trajectory j and produces its tuple batch.  It
// only reads the archive (never the index maps), so any number of walks
// may run concurrently.
func (ix *Index) walkTrajectory(a *core.Archive, j int) (*trajBatch, error) {
	rec := a.Trajs[j]
	b := &trajBatch{}

	// Temporal entries: one per interval the trajectory has samples in.
	T := make([]int64, 0, rec.NumPoints)
	cur, err := rec.TimeCursorStart(a.Opts.Ts)
	if err != nil {
		return nil, err
	}
	T = append(T, cur.T())
	for cur.Next() {
		T = append(T, cur.T())
	}
	if len(T) != rec.NumPoints {
		return nil, fmt.Errorf("stiu: decoded %d of %d timestamps", len(T), rec.NumPoints)
	}
	lastInterval := -1
	for i, t := range T {
		iv := ix.IntervalOf(t)
		if iv != lastInterval {
			pos := int32(-1)
			if i < len(rec.TDeltaPos) {
				pos = int32(rec.TDeltaPos[i])
			}
			b.temporal = append(b.temporal, TemporalEntry{Start: t, No: int32(i), Pos: pos})
			lastInterval = iv
		}
	}
	b.firstIv, b.lastIv = ix.IntervalOf(T[0]), ix.IntervalOf(T[len(T)-1])

	// Decode instance walks.
	walks := make([]*instWalk, 0, len(rec.Insts))
	refViews := make(map[int]*core.RefView)
	for orig, meta := range rec.Insts {
		if !meta.IsRef {
			continue
		}
		rv, err := a.RefView(j, orig)
		if err != nil {
			return nil, err
		}
		refViews[orig] = rv
		w, err := ix.walkInstance(a, rv.SV, rv.E, rv.FullTF(), nil)
		if err != nil {
			return nil, err
		}
		w.orig, w.refOrig, w.p = orig, -1, meta.P
		walks = append(walks, w)
	}
	for orig, meta := range rec.Insts {
		if meta.IsRef {
			continue
		}
		ref := refViews[meta.RefOrig]
		nv, err := a.NonRefView(j, orig, ref)
		if err != nil {
			return nil, err
		}
		e, err := nv.ExpandE(ref)
		if err != nil {
			return nil, err
		}
		tf, err := nv.FullTF(ref)
		if err != nil {
			return nil, err
		}
		w, err := ix.walkInstance(a, ref.SV, e, tf, nv.EFactors)
		if err != nil {
			return nil, err
		}
		w.orig, w.refOrig, w.p = orig, meta.RefOrig, meta.P
		walks = append(walks, w)
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

	for _, refOrig := range groupKeys {
		ix.emitGroupTuples(b, j, refOrig, groups[refOrig], T)
	}
	return b, nil
}

// walkInstance decodes the traversal: region visits with entry positions
// and point counts, plus factor spans for non-references.
func (ix *Index) walkInstance(a *core.Archive, sv roadnet.VertexID, E []uint16, tf []bool, factors []core.EFactor) (*instWalk, error) {
	g := a.Graph
	w := &instWalk{}
	curVertex := sv
	var curRegion roadnet.RegionID = roadnet.NoRegion
	lastEdgeEntry := 0
	ones := 0

	for i, no := range E {
		if no != 0 {
			e, ok := g.OutEdge(curVertex, int(no))
			if !ok {
				return nil, fmt.Errorf("stiu: no outgoing edge %d at vertex %d", no, curVertex)
			}
			prevEdgeEntry := lastEdgeEntry
			lastEdgeEntry = i
			curVertex = g.Edge(e).To
			for _, re := range ix.Grid.CellsOfEdge(g, e) {
				if re == curRegion {
					continue
				}
				if curRegion == roadnet.NoRegion {
					// First region: the instance starts here.
					w.visits = append(w.visits, visit{re: re, first: true})
				} else {
					pi := ones - 1
					if pi < 0 {
						pi = 0
					}
					w.visits = append(w.visits, visit{re: re, fvNo: prevEdgeEntry, pointIdx: pi})
				}
				curRegion = re
			}
		}
		if tf[i] {
			ones++
		}
	}

	// Factor spans for non-references.
	off := 0
	for _, f := range factors {
		flen := 1
		if !f.NotInRef {
			flen = f.L
			if f.HasM {
				flen++
			}
		}
		w.factors = append(w.factors, factorSpan{start: off, end: off + flen})
		off += flen
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
		enters bool         // the reference itself visits the region
		seen   map[int]bool // Ω is a set: each instance counts once
		pTotal float64
		pMax   float64 // max non-reference probability (0 when none)
	}
	aggs := make(map[key]*agg)
	var keysInOrder []key

	intervalsOf := func(v *visit) []int {
		a0 := ix.IntervalOf(T[v.pointIdx])
		next := v.pointIdx + 1
		if next >= len(T) {
			next = len(T) - 1
		}
		a1 := ix.IntervalOf(T[next])
		if a1 == a0 {
			return []int{a0}
		}
		out := make([]int, 0, a1-a0+1)
		for iv := a0; iv <= a1; iv++ {
			out = append(out, iv)
		}
		return out
	}

	for _, m := range members {
		for vi := range m.visits {
			v := &m.visits[vi]
			for _, iv := range intervalsOf(v) {
				k := key{iv, v.re}
				ag := aggs[k]
				if ag == nil {
					ag = &agg{seen: make(map[int]bool)}
					aggs[k] = ag
					keysInOrder = append(keysInOrder, k)
				}
				if !ag.seen[m.orig] {
					ag.seen[m.orig] = true
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

	// Reference tuples.
	for _, k := range keysInOrder {
		ag := aggs[k]
		rt := RefTuple{
			Traj:   int32(j),
			Orig:   int32(refOrig),
			Enters: ag.enters,
			PTotal: float32(ag.pTotal),
			PMax:   float32(ag.pMax),
		}
		b.emits = append(b.emits, spatialEmit{interval: k.interval, re: k.re, isRef: true, ref: rt})
	}

	// Non-reference tuples are counted under the factor-crossing rule: one
	// tuple per (instance, factor), kept for the first region traversed.
	for _, m := range members {
		if m.refOrig < 0 {
			continue
		}
		usedFactor := make(map[int]bool)
		for vi := range m.visits {
			v := &m.visits[vi]
			if !v.first {
				h := factorOf(m.factors, v.fvNo)
				if h < 0 || usedFactor[h] {
					continue
				}
				usedFactor[h] = true
			}
			for _, iv := range intervalsOf(v) {
				b.emits = append(b.emits, spatialEmit{interval: iv, re: v.re})
			}
		}
	}
}

// factorOf returns the factor index whose entry span contains off.
func factorOf(spans []factorSpan, off int) int {
	for h, s := range spans {
		if off >= s.start && off < s.end {
			return h
		}
	}
	return -1
}
