package exp

import (
	"io"
	"math"
	"math/rand"
	"time"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/ted"
	"utcq/internal/traj"
)

// queryHarness bundles both systems' archives, indexes and engines plus
// the oracle over one dataset.
type queryHarness struct {
	bundle *Bundle
	ua     *core.Archive
	ta     *ted.Archive
	ix     *stiu.Index
	tix    *query.TEDIndex
	eng    *query.Engine
	tedEng *query.TEDEngine
	oracle *query.Oracle
}

func newQueryHarness(b *Bundle, sopts stiu.Options) (*queryHarness, error) {
	h := &queryHarness{bundle: b}
	c, err := core.NewCompressor(b.DS.Graph, b.Opts)
	if err != nil {
		return nil, err
	}
	if h.ua, err = c.Compress(b.DS.Trajectories); err != nil {
		return nil, err
	}
	if h.ix, err = stiu.Build(h.ua, sopts); err != nil {
		return nil, err
	}
	tc, err := ted.NewCompressor(b.DS.Graph, TEDOptionsFor(b.Profile, b.Opts))
	if err != nil {
		return nil, err
	}
	if h.ta, err = tc.Compress(b.DS.Trajectories); err != nil {
		return nil, err
	}
	if h.tix, err = query.BuildTEDIndex(h.ta, sopts); err != nil {
		return nil, err
	}
	h.eng = query.NewEngine(h.ua, h.ix)
	h.tedEng = query.NewTEDEngine(h.ta, h.tix)
	// Experiments charge every query its own decompression, as the paper's
	// measurements do (the UTCQ engine keeps no decoded state anyway).
	h.tedEng.DisableCache = true
	h.oracle = query.NewOracle(b.DS.Graph, b.DS.Trajectories)
	return h, nil
}

// Workloads -----------------------------------------------------------------

type whereQuery struct {
	j     int
	t     int64
	alpha float64
}

type whenQuery struct {
	j     int
	loc   roadnet.Position
	alpha float64
}

type rangeQuery struct {
	re    roadnet.Rect
	t     int64
	alpha float64
}

func whereWorkload(tus []*traj.Uncertain, n int, seed int64) []whereQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]whereQuery, n)
	for i := range out {
		j := rng.Intn(len(tus))
		T := tus[j].T
		out[i] = whereQuery{
			j:     j,
			t:     T[0] + rng.Int63n(T[len(T)-1]-T[0]+1),
			alpha: 0.25,
		}
	}
	return out
}

func whenWorkload(g *roadnet.Graph, tus []*traj.Uncertain, n int, seed int64) []whenQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]whenQuery, n)
	for i := range out {
		j := rng.Intn(len(tus))
		u := tus[j]
		ins := &u.Instances[rng.Intn(len(u.Instances))]
		path, err := ins.PathEdges(g)
		if err != nil || len(path) == 0 {
			i--
			continue
		}
		out[i] = whenQuery{
			j:     j,
			loc:   g.PositionAtRD(path[rng.Intn(len(path))], rng.Float64()),
			alpha: 0.25,
		}
	}
	return out
}

func rangeWorkload(g *roadnet.Graph, tus []*traj.Uncertain, n int, seed int64) []rangeQuery {
	rng := rand.New(rand.NewSource(seed))
	bounds := g.Bounds()
	out := make([]rangeQuery, n)
	for i := range out {
		j := rng.Intn(len(tus))
		T := tus[j].T
		w := (bounds.MaxX - bounds.MinX) * 0.08
		h := (bounds.MaxY - bounds.MinY) * 0.08
		// Center the rectangle near a live trajectory's area half the time
		// so queries exercise both hits and prunes.
		var cx, cy float64
		if rng.Intn(2) == 0 {
			ins := &tus[j].Instances[0]
			path, err := ins.PathEdges(g)
			if err == nil && len(path) > 0 {
				e := g.Edge(path[len(path)/2])
				v := g.Vertex(e.From)
				cx, cy = v.X, v.Y
			}
		} else {
			cx = bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX)
			cy = bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY)
		}
		out[i] = rangeQuery{
			re:    roadnet.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
			t:     T[0] + rng.Int63n(T[len(T)-1]-T[0]+1),
			alpha: 0.5,
		}
	}
	return out
}

// Fig 9 ----------------------------------------------------------------------

// Fig9Point is one granularity setting's index sizes and range-query time.
type Fig9Point struct {
	X        int // grid side or partition minutes
	UTSizeMB float64
	USSizeMB float64
	TSizeMB  float64
	UTime    time.Duration // total over the workload
	TTime    time.Duration
}

// Fig9 sweeps the spatial and temporal partition granularity and measures
// index sizes and range-query time for UTCQ and TED.
func Fig9(w io.Writer, bundles []*Bundle, cfg Config) (grid map[string][]Fig9Point, dur map[string][]Fig9Point, err error) {
	grid = make(map[string][]Fig9Point)
	dur = make(map[string][]Fig9Point)
	fprintf(w, "Fig 9: Effect of partition granularity on probabilistic range queries\n")
	for _, b := range bundles {
		queries := rangeWorkload(b.DS.Graph, b.DS.Trajectories, 120, cfg.Seed+9)
		for _, side := range []int{8, 16, 32, 64, 128} {
			pt, err := fig9Point(b, stiu.Options{GridNX: side, GridNY: side, IntervalDur: 1800}, queries, side)
			if err != nil {
				return nil, nil, err
			}
			grid[b.Profile.Name] = append(grid[b.Profile.Name], pt)
			fprintf(w, "%-4s grid=%3dx%-3d  UTCQ s-size=%6.2fMB t-size=%6.2fMB time=%9s | TED size=%6.2fMB time=%9s\n",
				b.Profile.Name, side, side, pt.USSizeMB, pt.UTSizeMB, pt.UTime.Round(10*time.Microsecond),
				pt.TSizeMB, pt.TTime.Round(10*time.Microsecond))
		}
		for _, mins := range []int{10, 20, 30, 40, 50, 60} {
			pt, err := fig9Point(b, stiu.Options{GridNX: 64, GridNY: 64, IntervalDur: int64(mins) * 60}, queries, mins)
			if err != nil {
				return nil, nil, err
			}
			dur[b.Profile.Name] = append(dur[b.Profile.Name], pt)
			fprintf(w, "%-4s partition=%2dmin  UTCQ t-size=%6.2fMB time=%9s | TED time=%9s\n",
				b.Profile.Name, mins, pt.UTSizeMB, pt.UTime.Round(10*time.Microsecond), pt.TTime.Round(10*time.Microsecond))
		}
	}
	return grid, dur, nil
}

func fig9Point(b *Bundle, sopts stiu.Options, queries []rangeQuery, x int) (Fig9Point, error) {
	h, err := newQueryHarness(b, sopts)
	if err != nil {
		return Fig9Point{}, err
	}
	pt := Fig9Point{
		X:        x,
		UTSizeMB: mb(h.ix.TemporalSizeBits()),
		USSizeMB: mb(h.ix.SpatialSizeBits(h.ua.VertexBits)),
		TSizeMB:  mb(h.tix.SizeBits(h.ta.VertexBits)),
	}
	start := time.Now()
	for _, q := range queries {
		if _, err := h.eng.Range(q.re, q.t, q.alpha); err != nil {
			return pt, err
		}
	}
	pt.UTime = time.Since(start)
	start = time.Now()
	for _, q := range queries {
		if _, err := h.tedEng.Range(q.re, q.t, q.alpha); err != nil {
			return pt, err
		}
	}
	pt.TTime = time.Since(start)
	return pt, nil
}

// Fig 10 ---------------------------------------------------------------------

// Fig10Row is one dataset's where/when workload times.
type Fig10Row struct {
	Name           string
	UWhere, TWhere time.Duration
	UWhen, TWhen   time.Duration
}

// Fig10 measures probabilistic where and when query time, UTCQ vs TED.
func Fig10(w io.Writer, bundles []*Bundle, cfg Config) ([]Fig10Row, error) {
	fprintf(w, "Fig 10: Probabilistic where/when query performance (workload totals)\n")
	var rows []Fig10Row
	for _, b := range bundles {
		h, err := newQueryHarness(b, stiu.DefaultOptions())
		if err != nil {
			return nil, err
		}
		wheres := whereWorkload(b.DS.Trajectories, 400, cfg.Seed+10)
		whens := whenWorkload(b.DS.Graph, b.DS.Trajectories, 400, cfg.Seed+11)
		row := Fig10Row{Name: b.Profile.Name}

		start := time.Now()
		for _, q := range wheres {
			if _, err := h.eng.Where(q.j, q.t, q.alpha); err != nil {
				return nil, err
			}
		}
		row.UWhere = time.Since(start)
		start = time.Now()
		for _, q := range wheres {
			if _, err := h.tedEng.Where(q.j, q.t, q.alpha); err != nil {
				return nil, err
			}
		}
		row.TWhere = time.Since(start)

		start = time.Now()
		for _, q := range whens {
			if _, err := h.eng.When(q.j, q.loc, q.alpha); err != nil {
				return nil, err
			}
		}
		row.UWhen = time.Since(start)
		start = time.Now()
		for _, q := range whens {
			if _, err := h.tedEng.When(q.j, q.loc, q.alpha); err != nil {
				return nil, err
			}
		}
		row.TWhen = time.Since(start)

		rows = append(rows, row)
		fprintf(w, "%-4s where: UTCQ=%9s TED=%9s | when: UTCQ=%9s TED=%9s\n",
			row.Name, row.UWhere.Round(10*time.Microsecond), row.TWhere.Round(10*time.Microsecond),
			row.UWhen.Round(10*time.Microsecond), row.TWhen.Round(10*time.Microsecond))
	}
	return rows, nil
}

// Fig 11 ---------------------------------------------------------------------

// Fig11Point is one error-bound accuracy measurement.
type Fig11Point struct {
	Eta       float64
	WhereDiff float64 // meters
	WhenDiff  float64 // seconds
	WhereF1   float64
	WhenF1    float64
}

// Fig11 sweeps the error bounds: ηD drives the average difference of
// where/when results; ηp drives the F1 score of result membership.
func Fig11(w io.Writer, bundles []*Bundle, cfg Config) (dSweep, pSweep map[string][]Fig11Point, err error) {
	dSweep = make(map[string][]Fig11Point)
	pSweep = make(map[string][]Fig11Point)
	fprintf(w, "Fig 11: Effect of error bounds on query accuracy\n")
	for _, b := range bundles {
		if b.Profile.Name == "DK" {
			continue // the paper reports CD and HZ
		}
		wheres := whereWorkload(b.DS.Trajectories, 250, cfg.Seed+12)
		whens := whenWorkload(b.DS.Graph, b.DS.Trajectories, 250, cfg.Seed+13)
		for _, etaD := range []float64{1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8} {
			opts := b.Opts
			opts.EtaD = etaD
			pt, err := fig11Point(b, opts, wheres, whens)
			if err != nil {
				return nil, nil, err
			}
			pt.Eta = etaD
			dSweep[b.Profile.Name] = append(dSweep[b.Profile.Name], pt)
			fprintf(w, "%-4s etaD=1/%-5.0f where diff=%6.2fm  when diff=%6.2fs\n",
				b.Profile.Name, 1/etaD, pt.WhereDiff, pt.WhenDiff)
		}
		for _, etaP := range []float64{1.0 / 2048, 1.0 / 1024, 1.0 / 512, 1.0 / 256, 1.0 / 128} {
			opts := b.Opts
			opts.EtaP = etaP
			pt, err := fig11Point(b, opts, wheres, whens)
			if err != nil {
				return nil, nil, err
			}
			pt.Eta = etaP
			pSweep[b.Profile.Name] = append(pSweep[b.Profile.Name], pt)
			fprintf(w, "%-4s etaP=1/%-5.0f where F1=%6.4f  when F1=%6.4f\n",
				b.Profile.Name, 1/etaP, pt.WhereF1, pt.WhenF1)
		}
	}
	return dSweep, pSweep, nil
}

func fig11Point(b *Bundle, opts core.Options, wheres []whereQuery, whens []whenQuery) (Fig11Point, error) {
	var pt Fig11Point
	c, err := core.NewCompressor(b.DS.Graph, opts)
	if err != nil {
		return pt, err
	}
	ua, err := c.Compress(b.DS.Trajectories)
	if err != nil {
		return pt, err
	}
	ix, err := stiu.Build(ua, stiu.DefaultOptions())
	if err != nil {
		return pt, err
	}
	eng := query.NewEngine(ua, ix)
	oracle := query.NewOracle(b.DS.Graph, b.DS.Trajectories)
	g := b.DS.Graph

	var whereDiff float64
	whereMatched := 0
	var tp, fp, fn int
	for _, q := range wheres {
		got, err := eng.Where(q.j, q.t, q.alpha)
		if err != nil {
			return pt, err
		}
		want, err := oracle.Where(q.j, q.t, q.alpha)
		if err != nil {
			return pt, err
		}
		gotBy := map[int]query.WhereResult{}
		for _, r := range got {
			gotBy[r.Inst] = r
		}
		for _, o := range want {
			if r, ok := gotBy[o.Inst]; ok {
				tp++
				gx, gy := g.Coords(r.Loc)
				ox, oy := g.Coords(o.Loc)
				whereDiff += math.Hypot(gx-ox, gy-oy)
				whereMatched++
				delete(gotBy, o.Inst)
			} else {
				fn++
			}
		}
		fp += len(gotBy)
	}
	if whereMatched > 0 {
		pt.WhereDiff = whereDiff / float64(whereMatched)
	}
	pt.WhereF1 = f1(tp, fp, fn)

	var whenDiff float64
	whenMatched := 0
	tp, fp, fn = 0, 0, 0
	for _, q := range whens {
		got, err := eng.When(q.j, q.loc, q.alpha)
		if err != nil {
			return pt, err
		}
		want, err := oracle.When(q.j, q.loc, q.alpha)
		if err != nil {
			return pt, err
		}
		gotBy := map[int][]query.WhenResult{}
		for _, r := range got {
			gotBy[r.Inst] = append(gotBy[r.Inst], r)
		}
		for _, o := range want {
			rs := gotBy[o.Inst]
			if len(rs) > 0 {
				tp++
				whenDiff += math.Abs(float64(rs[0].T - o.T))
				whenMatched++
				gotBy[o.Inst] = rs[1:]
			} else {
				fn++
			}
		}
		for _, rs := range gotBy {
			fp += len(rs)
		}
	}
	if whenMatched > 0 {
		pt.WhenDiff = whenDiff / float64(whenMatched)
	}
	pt.WhenF1 = f1(tp, fp, fn)
	return pt, nil
}

func f1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	return 2 * precision * recall / (precision + recall)
}

// Fig 12 (query side) ---------------------------------------------------------

// Fig12QueryPoint is one data-size query-time measurement.
type Fig12QueryPoint struct {
	X     float64
	UTime time.Duration
	TTime time.Duration
}

// Fig12Query varies data size and measures range-query time.
func Fig12Query(w io.Writer, bundles []*Bundle, cfg Config) (map[string][]Fig12QueryPoint, error) {
	fprintf(w, "Fig 12c/d: Scalability of query processing (data size 20%%..100%%)\n")
	out := make(map[string][]Fig12QueryPoint)
	for _, b := range bundles {
		if b.Profile.Name == "DK" {
			continue
		}
		for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			n := int(float64(len(b.DS.Trajectories)) * frac)
			if n < 2 {
				n = 2
			}
			sub := &Bundle{Profile: b.Profile, Opts: b.Opts, DS: &gen.Dataset{
				Profile: b.DS.Profile, Graph: b.DS.Graph, EdgeIndex: b.DS.EdgeIndex,
				Trajectories: b.DS.Trajectories[:n],
			}}
			h, err := newQueryHarness(sub, stiu.DefaultOptions())
			if err != nil {
				return nil, err
			}
			queries := rangeWorkload(b.DS.Graph, sub.DS.Trajectories, 120, cfg.Seed+14)
			pt := Fig12QueryPoint{X: frac * 100}
			start := time.Now()
			for _, q := range queries {
				if _, err := h.eng.Range(q.re, q.t, q.alpha); err != nil {
					return nil, err
				}
			}
			pt.UTime = time.Since(start)
			start = time.Now()
			for _, q := range queries {
				if _, err := h.tedEng.Range(q.re, q.t, q.alpha); err != nil {
					return nil, err
				}
			}
			pt.TTime = time.Since(start)
			out[b.Profile.Name] = append(out[b.Profile.Name], pt)
			fprintf(w, "%-4s datasize=%3.0f%%  UTCQ=%9s  TED=%9s\n",
				b.Profile.Name, pt.X, pt.UTime.Round(10*time.Microsecond), pt.TTime.Round(10*time.Microsecond))
		}
	}
	return out, nil
}
