package query

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"utcq/internal/core"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// Engine answers probabilistic queries over a UTCQ archive via the StIU
// index.  Every instance a query touches is read straight off its
// record's bit stream by a pooled instance cursor (partial decompression:
// only the bits up to the points the query needs), and Lemmas 1-4 avoid
// touching instances that cannot contribute.  Nothing decoded outlives a
// query, so a cold query costs what a warm one does and the engine's
// memory does not grow with the data it has answered from.
//
// An Engine is safe for concurrent use: one instance serves any number of
// goroutines calling Where, When and Range simultaneously.  DisablePruning
// must be set before the engine is shared; it is a plain field precisely
// so single-threaded measurement runs can toggle it between workloads,
// and is not synchronized.
type Engine struct {
	Arch *core.Archive
	Ix   *stiu.Index

	// DisablePruning turns off Lemmas 1-4 (ablation benchmarks).
	// Set before sharing the engine across goroutines.
	DisablePruning bool

	// Deprecated: ignored.  The engine keeps no decoded state between
	// queries, so every query already pays its own decompression cost
	// (the paper's measurement model).
	DisableCache bool

	// Per-trajectory query-plan state, precomputed at construction so the
	// range hot path neither sorts nor allocates per query:
	// probOrder[j] lists instance origs in descending probability,
	// probSum[j] is the total instance probability, and instOffset[j] maps
	// (j, orig) to a flat index for the Lemma-1 and Lemma-4 scratch;
	// instOffset[j+1] ends trajectory j's range.
	probOrder  [][]int32
	probSum    []float64
	instOffset []int
	numInsts   int

	// Work counters, maintained atomically (see Stats).
	pathsDecoded     atomic.Int64
	instancesSkipped atomic.Int64
	trajsPruned      atomic.Int64
	trajsAccepted    atomic.Int64
}

// rangeScratch is the per-query working set of Range: flat, epoch-stamped
// accumulators replacing the historical map[int]map[int]float64, so a query
// touches O(candidates) memory with zero steady-state allocations.
type rangeScratch struct {
	epoch   uint64
	group   []float64 // per flat instance index: summed ptotal
	gstamp  []uint64
	bound   []float64 // per trajectory: Lemma-4 probability bound
	bstamp  []uint64
	touched []touchedGroup
	buckets []*stiu.RegionBucket
}

type touchedGroup struct {
	traj int32
	gi   int32 // flat instance index of the group's reference
}

// Scratch pools are shared by every engine: scratch holds no decoded
// data, only epoch-stamped work areas sized to the largest engine that
// used them, so the memory the pools hold does not grow with the number
// of engines (shards) and a new engine starts without a cold pool.  The
// epoch belongs to the scratch, not the engine, so a stamp left by another
// engine never equals the current epoch.
var (
	rangePool sync.Pool
	whenPool  sync.Pool
)

func (e *Engine) getScratch() *rangeScratch {
	sc, _ := rangePool.Get().(*rangeScratch)
	if sc == nil {
		sc = new(rangeScratch)
	}
	if len(sc.group) < e.numInsts {
		sc.group, sc.gstamp = make([]float64, e.numInsts), make([]uint64, e.numInsts)
	}
	if n := len(e.Arch.Trajs); len(sc.bound) < n {
		sc.bound, sc.bstamp = make([]float64, n), make([]uint64, n)
	}
	return sc
}

func putScratch(sc *rangeScratch) {
	sc.touched = sc.touched[:0]
	// Drop the bucket pointers so the shared pool does not pin decoded
	// buckets of closed shards or retired generations.
	clear(sc.buckets)
	sc.buckets = sc.buckets[:0]
	rangePool.Put(sc)
}

// whenScratch is the per-query working set of When: a flat epoch-stamped
// group plan (replacing the historical map[int]*groupPlan) and a reusable
// passage buffer, so a when query performs zero steady-state allocations.
type whenScratch struct {
	epoch    uint64
	plan     []uint8 // per flat instance index: planRef/planNonRefs bits
	pstamp   []uint64
	passages []passage
}

// Group-plan bits: Lemma 1 decides, per reference group, whether the
// reference itself and whether its non-references need processing.
const (
	planRef     = uint8(1 << 0)
	planNonRefs = uint8(1 << 1)
)

func (e *Engine) getWhenScratch() *whenScratch {
	sc, _ := whenPool.Get().(*whenScratch)
	if sc == nil {
		sc = new(whenScratch)
	}
	if len(sc.plan) < e.numInsts {
		sc.plan, sc.pstamp = make([]uint8, e.numInsts), make([]uint64, e.numInsts)
	}
	return sc
}

func putWhenScratch(sc *whenScratch) {
	sc.passages = sc.passages[:0]
	whenPool.Put(sc)
}

// EngineStats is a point-in-time snapshot of the work the engine
// performed, demonstrating the pruning lemmas.
type EngineStats struct {
	PathsDecoded     int64 // instance cursor runs
	InstancesSkipped int64
	TrajsPruned      int64 // range queries: Lemma 4 rejections
	TrajsAccepted    int64 // range queries: Lemma 3 early accepts

	// Deprecated: always 0.  The engine has no cache.
	CacheHits int64
	// Deprecated: always 0.  The engine has no cache.
	CacheMisses int64
}

// Stats returns a consistent-enough snapshot of the engine's counters.
// Safe to call concurrently with queries.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		PathsDecoded:     e.pathsDecoded.Load(),
		InstancesSkipped: e.instancesSkipped.Load(),
		TrajsPruned:      e.trajsPruned.Load(),
		TrajsAccepted:    e.trajsAccepted.Load(),
	}
}

// EngineOptions once configured the engine's caches.
//
// Deprecated: ignored; the engine has no cache.
type EngineOptions struct {
	// Deprecated: ignored.
	CacheEntries int
}

// DefaultEngineOptions returns the zero EngineOptions.
//
// Deprecated: EngineOptions are ignored.
func DefaultEngineOptions() EngineOptions { return EngineOptions{} }

// NewEngineWithOptions is NewEngine.
//
// Deprecated: EngineOptions are ignored; use NewEngine.
func NewEngineWithOptions(a *core.Archive, ix *stiu.Index, _ EngineOptions) *Engine {
	return NewEngine(a, ix)
}

// NewEngine returns an engine over an archive and its index.  The
// returned engine is safe for concurrent use once its configuration
// fields are set (see Engine).
func NewEngine(a *core.Archive, ix *stiu.Index) *Engine {
	e := &Engine{Arch: a, Ix: ix}
	e.probOrder = make([][]int32, len(a.Trajs))
	e.probSum = make([]float64, len(a.Trajs))
	e.instOffset = make([]int, len(a.Trajs)+1)
	for j, tr := range a.Trajs {
		e.instOffset[j] = e.numInsts
		e.numInsts += len(tr.Insts)
		e.instOffset[j+1] = e.numInsts
		ord := make([]int32, len(tr.Insts))
		sum := 0.0
		for o := range ord {
			ord[o] = int32(o)
			sum += tr.Insts[o].P
		}
		insts := tr.Insts
		slices.SortFunc(ord, func(a, b int32) int {
			switch {
			case insts[a].P > insts[b].P:
				return -1
			case insts[a].P < insts[b].P:
				return 1
			default:
				return int(a) - int(b)
			}
		})
		e.probOrder[j] = ord
		e.probSum[j] = sum
	}
	return e
}

// open points the cursor at instance orig of trajectory j, counting the
// run in PathsDecoded.
func (e *Engine) open(c *instCursor, j, orig int) error {
	e.pathsDecoded.Add(1)
	return c.reset(e.Arch, j, orig)
}

// bracket finds i with T[i] <= t <= T[i+1] using the temporal index and a
// partial decode from t.pos; ok is false when t is outside the trajectory.
func (e *Engine) bracket(j int, t int64) (i int, ti, ti1 int64, ok bool) {
	entry, found := e.Ix.FindTemporal(j, t)
	rec := e.Arch.Trajs[j]
	if !found || int(entry.No) >= rec.NumPoints { // an ordinal past the points: not this record's index
		return 0, 0, 0, false
	}
	if entry.Pos < 0 {
		// The entry is the final timestamp.
		if entry.Start == t {
			return int(entry.No), t, t, true
		}
		return 0, 0, 0, false
	}
	var cur core.TimeCursor
	if err := rec.ResetTimeCursor(&cur, e.Arch.Opts.Ts, int(entry.Pos), entry.Start, int(entry.No)); err != nil {
		return 0, 0, 0, false
	}
	prevT := cur.T()
	prevI := cur.Index()
	for cur.Next() {
		if cur.T() >= t {
			return prevI, prevT, cur.T(), true
		}
		prevT = cur.T()
		prevI = cur.Index()
	}
	if prevT == t {
		return prevI, prevT, prevT, true
	}
	return 0, 0, 0, false
}

// timeAt partially decodes T[k] (and T[k+1] when wantNext) by resuming at
// the nearest temporal entry.
func (e *Engine) timeAt(j, k int, wantNext bool) (tk, tk1 int64, err error) {
	entry, found := e.Ix.FindTemporalByNo(j, k)
	if !found {
		return 0, 0, fmt.Errorf("query: no temporal entry for point %d", k)
	}
	rec := e.Arch.Trajs[j]
	if int(entry.No) == k && !wantNext {
		return entry.Start, 0, nil
	}
	if entry.Pos < 0 {
		if int(entry.No) == k {
			return entry.Start, entry.Start, nil
		}
		return 0, 0, fmt.Errorf("query: point %d beyond time stream", k)
	}
	var cur core.TimeCursor
	if err := rec.ResetTimeCursor(&cur, e.Arch.Opts.Ts, int(entry.Pos), entry.Start, int(entry.No)); err != nil {
		return 0, 0, err
	}
	for cur.Index() < k {
		if !cur.Next() {
			return 0, 0, fmt.Errorf("query: point %d beyond time stream", k)
		}
	}
	tk = cur.T()
	tk1 = tk
	if wantNext && cur.Next() {
		tk1 = cur.T()
	}
	return tk, tk1, nil
}

// Where implements the probabilistic where query (Definition 10): the
// locations at time t of the instances with probability >= alpha.
func (e *Engine) Where(j int, t int64, alpha float64) ([]WhereResult, error) {
	i, ti, ti1, ok := e.bracket(j, t)
	if !ok {
		return nil, nil
	}
	rec := e.Arch.Trajs[j]
	hits := 0
	for orig := range rec.Insts {
		if rec.Insts[orig].P >= alpha {
			hits++
		}
	}
	e.instancesSkipped.Add(int64(len(rec.Insts) - hits))
	if hits == 0 {
		return nil, nil
	}
	c := getCursor()
	defer putCursor(c)
	out := make([]WhereResult, 0, hits)
	for orig := range rec.Insts {
		p := rec.Insts[orig].P
		if p < alpha {
			continue
		}
		if err := e.open(c, j, orig); err != nil {
			return nil, err
		}
		loc, err := c.locationAt(i, ti, ti1, t)
		if err != nil {
			return nil, err
		}
		out = append(out, WhereResult{Inst: orig, P: p, Loc: loc})
	}
	return out, nil
}

// When implements the probabilistic when query (Definition 11): the times
// at which instances with probability >= alpha passed the location.
func (e *Engine) When(j int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	return e.AppendWhen(nil, j, loc, alpha)
}

// AppendWhen appends the when-query results to dst and returns the
// extended slice.  Callers that recycle dst across queries pay zero
// steady-state allocations; the appended window is sorted by (Inst, T),
// entries before it are untouched.
func (e *Engine) AppendWhen(dst []WhenResult, j int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	x, y := e.Arch.Graph.Coords(loc)
	re := e.Ix.Grid.CellOf(x, y)
	var lo, hi int
	var err error
	if !e.DisablePruning {
		if lo, hi, err = e.whenSpan(j, re); err != nil || lo > hi {
			return dst, err // lo > hi: no instance of this trajectory enters the region
		}
	}
	rec := e.Arch.Trajs[j]

	// Group-level filtering: Lemma 1 skips reconstructing a reference's
	// non-references when every tuple's pmax < alpha.  Plans live in flat
	// epoch-stamped scratch indexed by the group's reference orig.
	sc := e.getWhenScratch()
	defer putWhenScratch(sc)
	c := getCursor()
	defer putCursor(c)
	sc.epoch++
	off := e.instOffset[j]
	if e.DisablePruning {
		for orig := range rec.Insts {
			gk := orig
			if ro := rec.Insts[orig].RefOrig; ro >= 0 {
				gk = ro
			}
			sc.pstamp[off+gk] = sc.epoch
			sc.plan[off+gk] = planRef | planNonRefs
		}
	} else {
		for iv := lo; iv <= hi; iv++ {
			bucket, err := e.Ix.Buckets(iv, re)
			if err != nil {
				return dst, err
			}
			if bucket == nil {
				continue
			}
			for i := range bucket.Refs {
				rt := &bucket.Refs[i]
				if int(rt.Traj) != j {
					continue
				}
				gi := off + int(rt.Orig)
				if gi >= e.instOffset[j+1] {
					return dst, errTupleInstance(rt, len(rec.Insts))
				}
				if sc.pstamp[gi] != sc.epoch {
					sc.pstamp[gi] = sc.epoch
					sc.plan[gi] = 0
				}
				if rt.Enters && rec.Insts[rt.Orig].P >= alpha {
					sc.plan[gi] |= planRef
				}
				if float64(rt.PMax) >= alpha {
					sc.plan[gi] |= planNonRefs // Lemma 1 does not apply
				}
			}
		}
	}

	// Group keys are always reference origs, so a single ascending pass
	// over the instances visits every stamped plan deterministically.
	n0 := len(dst)
	for gk := range rec.Insts {
		gi := off + gk
		if sc.pstamp[gi] != sc.epoch {
			continue
		}
		pl := sc.plan[gi]
		if pl&planRef != 0 || e.DisablePruning {
			if dst, err = e.appendWhenInst(dst, sc, c, j, gk, loc, alpha); err != nil {
				return dst, err
			}
		}
		if pl&planNonRefs != 0 {
			for orig := range rec.Insts {
				if rec.Insts[orig].RefOrig == gk { // gk >= 0: never a reference
					if dst, err = e.appendWhenInst(dst, sc, c, j, orig, loc, alpha); err != nil {
						return dst, err
					}
				}
			}
		} else {
			e.instancesSkipped.Add(1) // Lemma 1 skipped the group's non-refs
		}
	}
	win := dst[n0:]
	slices.SortFunc(win, func(a, b WhenResult) int {
		if a.Inst != b.Inst {
			return a.Inst - b.Inst
		}
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	return dst, nil
}

// whenSpan returns the intervals [lo, hi] whose buckets for cell re hold
// trajectory j's Lemma-1 tuples, lo > hi when none does.  Every tuple the
// build aggregates for j lands in some bucket (iv, re) with iv between the
// intervals of j's first and last samples, so those buckets, filtered to
// Traj == j, carry exactly the trajectory's plan; lo is advanced to the
// first of them that holds j, so a miss costs only bit tests and a scan of
// the few buckets present.
func (e *Engine) whenSpan(j int, re roadnet.RegionID) (lo, hi int, err error) {
	entries, err := e.Ix.TemporalEntries(j)
	if err != nil || len(entries) == 0 {
		return 0, -1, err
	}
	lo, hi = e.Ix.IntervalOf(entries[0].Start), e.Ix.IntervalOf(entries[len(entries)-1].Start)
	if hi-lo >= len(e.Ix.Intervals) { // every interval of a trajectory's span holds it as a candidate
		return 0, -1, fmt.Errorf("query: trajectory %d spans intervals %d..%d, more than the index's %d", j, lo, hi, len(e.Ix.Intervals))
	}
	for ; lo <= hi; lo++ {
		b, err := e.Ix.Buckets(lo, re)
		if err != nil {
			return 0, -1, err
		}
		if b != nil && slices.ContainsFunc(b.Refs, func(rt stiu.RefTuple) bool { return int(rt.Traj) == j }) {
			break
		}
	}
	return lo, hi, nil
}

// appendWhenInst appends the passages of one instance through loc, found
// in one forward pass of the cursor.
func (e *Engine) appendWhenInst(dst []WhenResult, sc *whenScratch, c *instCursor, j, orig int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	p := e.Arch.Trajs[j].Insts[orig].P
	if p < alpha {
		e.instancesSkipped.Add(1)
		return dst, nil
	}
	err := e.open(c, j, orig)
	if err != nil {
		return dst, err
	}
	sc.passages, err = c.appendPassagesAt(sc.passages[:0], loc)
	if err != nil {
		return dst, err
	}
	for _, pas := range sc.passages {
		tk, tk1, err := e.timeAt(j, pas.i, true)
		if err != nil {
			return dst, err
		}
		dst = append(dst, WhenResult{
			Inst: orig,
			P:    p,
			T:    tk + int64(pas.frac*float64(tk1-tk)+0.5),
		})
	}
	return dst, nil
}

// Range implements the probabilistic range query (Definition 12): the
// trajectories whose instances inside RE at time t carry total probability
// >= alpha.
func (e *Engine) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	return e.AppendRange(nil, re, t, alpha)
}

// AppendRange appends the range-query results to dst and returns the
// extended slice; recycling dst across queries avoids the per-query
// result allocation.
func (e *Engine) AppendRange(dst []int, re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	interval := e.Ix.IntervalOf(t)

	// Lemma 4 preparation: one pass over the buckets of the occupied
	// cells the rectangle covers upper-bounds each trajectory's
	// probability mass inside them.  The accumulators are flat
	// epoch-stamped slices from the scratch pool — no per-query maps.
	sc := e.getScratch()
	defer putScratch(sc)
	c := getCursor()
	defer putCursor(c)
	sc.epoch++
	sc.touched = sc.touched[:0]
	if !e.DisablePruning {
		buckets, err := e.Ix.AppendBucketsInRect(sc.buckets[:0], interval, re)
		sc.buckets = buckets
		if err != nil {
			return dst, err
		}
		for _, b := range buckets {
			for i := range b.Refs {
				rt := &b.Refs[i]
				gi := e.instOffset[rt.Traj] + int(rt.Orig)
				if gi >= e.instOffset[rt.Traj+1] {
					return dst, errTupleInstance(rt, len(e.Arch.Trajs[rt.Traj].Insts))
				}
				if sc.gstamp[gi] != sc.epoch {
					sc.gstamp[gi] = sc.epoch
					sc.group[gi] = 0
					sc.touched = append(sc.touched, touchedGroup{traj: rt.Traj, gi: int32(gi)})
				}
				sc.group[gi] += float64(rt.PTotal)
			}
		}
		// Fold group sums (each capped at 1) into per-trajectory bounds.
		for _, tg := range sc.touched {
			v := sc.group[tg.gi]
			if v > 1 {
				v = 1
			}
			if sc.bstamp[tg.traj] != sc.epoch {
				sc.bstamp[tg.traj] = sc.epoch
				sc.bound[tg.traj] = 0
			}
			sc.bound[tg.traj] += v
		}
	}

	cands, err := e.Ix.Candidates(interval)
	if err != nil {
		return dst, err
	}
	for _, j32 := range cands {
		j := int(j32)
		rec := e.Arch.Trajs[j]

		if !e.DisablePruning {
			// Lemma 4: prune when the bound cannot reach alpha.
			bound := 0.0
			if sc.bstamp[j] == sc.epoch {
				bound = sc.bound[j]
			}
			if bound < alpha {
				e.trajsPruned.Add(1)
				continue
			}
		}

		i, ti, ti1, ok := e.bracket(j, t)
		if !ok {
			continue
		}

		// Instances in descending probability for early acceptance,
		// precomputed at engine construction.
		confirmed := 0.0
		remaining := e.probSum[j]
		accepted := false
		for _, o32 := range e.probOrder[j] {
			orig := int(o32)
			p := rec.Insts[orig].P
			remaining -= p
			inside, err := e.instanceInside(c, j, orig, re, i, ti, ti1, t)
			if err != nil {
				return dst, err
			}
			if inside {
				confirmed += p
				if confirmed >= alpha { // Lemma 3
					accepted = true
					if !e.DisablePruning {
						e.trajsAccepted.Add(1)
					}
					break
				}
			}
			if !e.DisablePruning && confirmed+remaining < alpha {
				break // cannot reach alpha anymore
			}
		}
		if !accepted && confirmed >= alpha {
			accepted = true
		}
		if accepted {
			dst = append(dst, j)
		}
	}
	return dst, nil
}

// errTupleInstance reports an index tuple naming an instance its
// trajectory does not have: the index was not built from this archive.
func errTupleInstance(rt *stiu.RefTuple, insts int) error {
	return fmt.Errorf("query: index tuple names instance %d of trajectory %d, which has %d", rt.Orig, rt.Traj, insts)
}

// instanceInside tests whether the instance overlaps RE at time t, using
// Lemma 2 on the subpath between the bracketing points before falling back
// to exact interpolation.  The cursor reads the instance only up to point
// i+1, and decodes distances only when Lemma 2 cannot decide.
func (e *Engine) instanceInside(c *instCursor, j, orig int, re roadnet.Rect, i int, ti, ti1, t int64) (bool, error) {
	if err := e.open(c, j, orig); err != nil {
		return false, err
	}
	if i >= c.n {
		return false, nil
	}
	g := e.Arch.Graph
	if !e.DisablePruning {
		sp, err := c.subpath(i)
		if err != nil {
			return false, err
		}
		allIn, anyTouch := true, false
		for _, id := range sp {
			edge := g.Edge(id)
			a, b := g.Vertex(edge.From), g.Vertex(edge.To)
			in := re.Contains(a.X, a.Y) && re.Contains(b.X, b.Y)
			touch := re.IntersectsSegment(a.X, a.Y, b.X, b.Y)
			allIn = allIn && in
			anyTouch = anyTouch || touch
		}
		if allIn {
			return true, nil // Lemma 2(i): sp ⊆ RE
		}
		if !anyTouch {
			return false, nil // Lemma 2(ii): sp ∩ RE = ∅
		}
	}
	loc, err := c.locationAt(i, ti, ti1, t)
	if err != nil {
		return false, err
	}
	x, y := g.Coords(loc)
	return re.Contains(x, y), nil
}
