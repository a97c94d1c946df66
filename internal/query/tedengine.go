package query

import (
	"sort"

	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/ted"
	"utcq/internal/traj"
)

// TEDIndex is the spatio-temporal index for the adapted TED baseline: the
// same partitioning as StIU, but with one tuple per instance and region
// (no reference grouping, no ptotal/pmax summaries), so queries must
// decompress every candidate instance.
type TEDIndex struct {
	Opts stiu.Options
	Grid *roadnet.Grid

	// Temporal[j]: (t.start, t.no, pairIdx) per interval; pairIdx points at
	// the time pair to resume from.
	Temporal [][]stiu.TemporalEntry

	// Per interval: active trajectories.
	Intervals map[int][]int32

	// trajRegionInsts[j][re]: instances of trajectory j passing region re.
	trajRegionInsts []map[roadnet.RegionID][]int32
}

// BuildTEDIndex constructs the baseline index.
func BuildTEDIndex(a *ted.Archive, opts stiu.Options) (*TEDIndex, error) {
	ix := &TEDIndex{
		Opts:            opts,
		Grid:            roadnet.NewGrid(a.Graph, opts.GridNX, opts.GridNY),
		Temporal:        make([][]stiu.TemporalEntry, len(a.Trajs)),
		Intervals:       make(map[int][]int32),
		trajRegionInsts: make([]map[roadnet.RegionID][]int32, len(a.Trajs)),
	}
	var cells []roadnet.RegionID // scratch for each edge's regions
	for j := range a.Trajs {
		T, err := a.DecodeTime(j)
		if err != nil {
			return nil, err
		}
		lastInterval := -1
		for i, t := range T {
			iv := int(t / opts.IntervalDur)
			if iv != lastInterval {
				// Resume position: the last pair with no <= i.
				pairIdx := 0
				for k := 0; k < a.Trajs[j].NumPairs; k++ {
					no, _, err := a.Trajs[j].PairAt(k)
					if err != nil {
						return nil, err
					}
					if no <= i {
						pairIdx = k
					} else {
						break
					}
				}
				ix.Temporal[j] = append(ix.Temporal[j], stiu.TemporalEntry{
					Start: t, No: int32(i), Pos: int32(pairIdx),
				})
				lastInterval = iv
			}
		}
		for iv := int(T[0] / opts.IntervalDur); iv <= int(T[len(T)-1]/opts.IntervalDur); iv++ {
			ix.Intervals[iv] = append(ix.Intervals[iv], int32(j))
		}

		ix.trajRegionInsts[j] = make(map[roadnet.RegionID][]int32)
		for i := range a.Trajs[j].Insts {
			ins, err := a.DecodeInstance(j, i)
			if err != nil {
				return nil, err
			}
			pi, err := buildPathFromInstance(a.Graph, ins)
			if err != nil {
				return nil, err
			}
			seen := make(map[roadnet.RegionID]bool)
			for _, e := range pi.Edges {
				cells = ix.Grid.AppendCellsOfEdge(cells[:0], a.Graph, e)
				for _, re := range cells {
					if !seen[re] {
						seen[re] = true
						ix.trajRegionInsts[j][re] = append(ix.trajRegionInsts[j][re], int32(i))
					}
				}
			}
		}
	}
	for iv := range ix.Intervals {
		sort.Slice(ix.Intervals[iv], func(a, b int) bool { return ix.Intervals[iv][a] < ix.Intervals[iv][b] })
	}
	return ix, nil
}

// SizeBits returns the index size under the same accounting as StIU: one
// (fv.id, fv.no, d.pos)-style tuple per (instance, region) plus temporal
// entries.
func (ix *TEDIndex) SizeBits(vertexBits int) int64 {
	n := int64(0)
	for _, entries := range ix.Temporal {
		n += int64(len(entries)) * (17 + 12 + 32)
	}
	for _, regions := range ix.trajRegionInsts {
		for _, insts := range regions {
			n += int64(len(insts)) * int64(vertexBits+12+32)
		}
	}
	return n
}

// TEDEngine answers the same probabilistic queries over the TED baseline.
// TED has no uncertainty-aware pruning: every candidate instance with
// p >= alpha is fully decompressed.
type TEDEngine struct {
	Arch *ted.Archive
	Ix   *TEDIndex

	// DisableCache makes every query pay its own decompression cost,
	// including re-decoding the instance's matrix group.
	DisableCache bool

	paths map[[2]int]*pathInfo
}

// NewTEDEngine returns an engine over a TED archive and index.
func NewTEDEngine(a *ted.Archive, ix *TEDIndex) *TEDEngine {
	return &TEDEngine{Arch: a, Ix: ix, paths: make(map[[2]int]*pathInfo)}
}

func (e *TEDEngine) path(j, i int) (*pathInfo, error) {
	k := [2]int{j, i}
	if p, ok := e.paths[k]; ok {
		return p, nil
	}
	// Full per-instance decompression; without caching this includes
	// re-decoding the jointly compressed matrix group.
	var ins *traj.Instance
	var err error
	if e.DisableCache {
		ins, err = e.Arch.DecodeInstanceNoCache(j, i)
	} else {
		ins, err = e.Arch.DecodeInstance(j, i)
	}
	if err != nil {
		return nil, err
	}
	pi, err := buildPathFromInstance(e.Arch.Graph, ins)
	if err != nil {
		return nil, err
	}
	if !e.DisableCache {
		e.paths[k] = pi
	}
	return pi, nil
}

// timeAt returns T[k] and T[k+1] by interpolating between stored pairs
// (TED's native partial time access).
func (e *TEDEngine) timeAt(j, k int) (tk, tk1 int64, ok bool) {
	rec := e.Arch.Trajs[j]
	at := func(idx int) (int64, bool) {
		// Binary search the last pair with no <= idx.
		lo, hi, found := 0, rec.NumPairs-1, -1
		var fNo int
		var fT int64
		for lo <= hi {
			mid := (lo + hi) / 2
			no, t, err := rec.PairAt(mid)
			if err != nil {
				return 0, false
			}
			if no <= idx {
				found, fNo, fT = mid, no, t
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if found < 0 {
			return 0, false
		}
		if fNo == idx {
			return fT, true
		}
		if found+1 >= rec.NumPairs {
			return 0, false
		}
		nNo, nT, err := rec.PairAt(found + 1)
		if err != nil || nNo <= fNo {
			return 0, false
		}
		return fT + (nT-fT)*int64(idx-fNo)/int64(nNo-fNo), true
	}
	tk, ok1 := at(k)
	if !ok1 {
		return 0, 0, false
	}
	if k+1 >= rec.NumPoints {
		return tk, tk, true
	}
	tk1, ok2 := at(k + 1)
	if !ok2 {
		return tk, tk, true
	}
	return tk, tk1, true
}

// bracket finds i with T[i] <= t <= T[i+1] via the pair stream.
func (e *TEDEngine) bracket(j int, t int64) (i int, ti, ti1 int64, ok bool) {
	rec := e.Arch.Trajs[j]
	k, no, pt, found := rec.FindPairLE(t)
	if !found {
		return 0, 0, 0, false
	}
	if k == rec.NumPairs-1 {
		if pt == t {
			return no, t, t, true
		}
		return 0, 0, 0, false
	}
	nNo, nT, err := rec.PairAt(k + 1)
	if err != nil || nNo <= no {
		return 0, 0, 0, false
	}
	// The run between the pairs is arithmetic.
	d := (nT - pt) / int64(nNo-no)
	if d <= 0 {
		return 0, 0, 0, false
	}
	off := (t - pt) / d
	i = no + int(off)
	ti = pt + off*d
	if i >= nNo {
		i, ti = nNo-1, nT-d
	}
	return i, ti, ti + d, true
}

// Where is the probabilistic where query over the TED baseline.
func (e *TEDEngine) Where(j int, t int64, alpha float64) ([]WhereResult, error) {
	i, ti, ti1, ok := e.bracket(j, t)
	if !ok {
		return nil, nil
	}
	rec := e.Arch.Trajs[j]
	var out []WhereResult
	for inst := range rec.Insts {
		p := rec.Insts[inst].P
		if p < alpha {
			continue
		}
		pi, err := e.path(j, inst)
		if err != nil {
			return nil, err
		}
		out = append(out, WhereResult{Inst: inst, P: p, Loc: pi.locationAt(e.Arch.Graph, i, ti, ti1, t)})
	}
	return out, nil
}

// When is the probabilistic when query over the TED baseline.
func (e *TEDEngine) When(j int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	g := e.Arch.Graph
	x, y := g.Coords(loc)
	re := e.Ix.Grid.CellOf(x, y)
	insts := e.Ix.trajRegionInsts[j][re]
	rec := e.Arch.Trajs[j]
	var out []WhenResult
	for _, i32 := range insts {
		inst := int(i32)
		p := rec.Insts[inst].P
		if p < alpha {
			continue
		}
		pi, err := e.path(j, inst)
		if err != nil {
			return nil, err
		}
		for _, pas := range pi.passagesAt(g, loc) {
			tk, tk1, ok := e.timeAt(j, pas.i)
			if !ok {
				continue
			}
			out = append(out, WhenResult{Inst: inst, P: p, T: tk + int64(pas.frac*float64(tk1-tk)+0.5)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Inst != out[b].Inst {
			return out[a].Inst < out[b].Inst
		}
		return out[a].T < out[b].T
	})
	return out, nil
}

// Range is the probabilistic range query over the TED baseline: no
// Lemma 2-4 filtering, every candidate instance is tested exactly.
func (e *TEDEngine) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	g := e.Arch.Graph
	interval := int(t / e.Ix.Opts.IntervalDur)
	var out []int
	for _, j32 := range e.Ix.Intervals[interval] {
		j := int(j32)
		i, ti, ti1, ok := e.bracket(j, t)
		if !ok {
			continue
		}
		total := 0.0
		for inst := range e.Arch.Trajs[j].Insts {
			pi, err := e.path(j, inst)
			if err != nil {
				return nil, err
			}
			loc := pi.locationAt(g, i, ti, ti1, t)
			x, y := g.Coords(loc)
			if re.Contains(x, y) {
				total += e.Arch.Trajs[j].Insts[inst].P
			}
		}
		if total >= alpha {
			out = append(out, j)
		}
	}
	return out, nil
}
