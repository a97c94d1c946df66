package query

import (
	"fmt"
	"sort"
	"sync"

	"utcq/internal/core"
	"utcq/internal/roadnet"
)

// This file keeps the engine's former per-instance read path, lazyPath,
// unchanged as the reference the instance cursor is pinned against
// (TestCursorMatchesLazyPath): the cursor must reproduce its results
// bit for bit.

// buildLazyPath materializes instance orig of trajectory j the way the
// engine once did on a cache miss, from the fully decoded instance: its
// E, full T' and p, and a distance fetcher over its decoded D.  Full
// decoding reads through the same core.InstReader the cursor wraps; the
// reference stays independent of it because DecodeTrajectory's output is
// pinned on its own, bit for bit by the golden decode digests and
// against the source data by TestCompressGenerated.
func buildLazyPath(a *core.Archive, j, orig int) (*lazyPath, error) {
	u, err := a.DecodeTrajectory(j)
	if err != nil {
		return nil, err
	}
	ins := &u.Instances[orig]
	d := ins.D
	dFetch := func(k int) (float64, error) {
		if k < 0 || k >= len(d) {
			return 0, fmt.Errorf("point index %d outside %d", k, len(d))
		}
		return d[k], nil
	}
	return newLazyPath(a.Graph, ins.SV, ins.E, ins.TF, len(d), ins.P, dFetch)
}

// lazyPath is the UTCQ engine's partially decompressed traversal: the edge
// skeleton (from E and T', both cheap) is materialized, but relative
// distances are fetched per point on demand — a query touching two points
// decodes two D codes instead of the whole sequence.
//
// A lazyPath is safe for concurrent use: the skeleton is immutable after
// construction and the per-point memoization is guarded by mu, so cached
// paths can be shared by many query goroutines.
type lazyPath struct {
	P         float64
	Edges     []roadnet.EdgeID
	EdgeCum   []float64
	PointEdge []int

	g      *roadnet.Graph
	dFetch func(k int) (float64, error)

	mu     sync.Mutex
	coords []float64
	known  []bool

	// DDecodes counts on-demand distance decodes (partial decompression
	// accounting); guarded by mu.
	DDecodes int
}

// newLazyPath builds the skeleton from (SV, E, TF) and a distance fetcher.
func newLazyPath(g *roadnet.Graph, sv roadnet.VertexID, E []uint16, tf []bool, numPoints int, p float64, dFetch func(int) (float64, error)) (*lazyPath, error) {
	pi := &lazyPath{P: p, g: g, dFetch: dFetch,
		coords: make([]float64, numPoints), known: make([]bool, numPoints)}
	cur := sv
	cum := 0.0
	k := 0
	for i, no := range E {
		if no != 0 {
			e, ok := g.OutEdge(cur, int(no))
			if !ok {
				return nil, fmt.Errorf("query: no outgoing edge %d at vertex %d", no, cur)
			}
			pi.Edges = append(pi.Edges, e)
			pi.EdgeCum = append(pi.EdgeCum, cum)
			cum += g.Edge(e).Length
			cur = g.Edge(e).To
		}
		if i < len(tf) && tf[i] {
			if len(pi.Edges) == 0 {
				return nil, fmt.Errorf("query: point before first edge")
			}
			if k >= numPoints {
				return nil, fmt.Errorf("query: more set flags than points")
			}
			pi.PointEdge = append(pi.PointEdge, len(pi.Edges)-1)
			k++
		}
	}
	if k != numPoints {
		return nil, fmt.Errorf("query: placed %d of %d points", k, numPoints)
	}
	return pi, nil
}

// coord fetches (and memoizes) the linear path coordinate of point k.
func (pi *lazyPath) coord(k int) (float64, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.known[k] {
		return pi.coords[k], nil
	}
	d, err := pi.dFetch(k)
	if err != nil {
		return 0, err
	}
	pi.DDecodes++
	ei := pi.PointEdge[k]
	c := pi.EdgeCum[ei] + d*pi.g.Edge(pi.Edges[ei]).Length
	pi.coords[k] = c
	pi.known[k] = true
	return c, nil
}

// orderedCoords returns monotone coordinates for two adjacent points
// (quantization can perturb same-edge ordering slightly).
func (pi *lazyPath) orderedCoords(i, j int) (float64, float64, error) {
	c0, err := pi.coord(i)
	if err != nil {
		return 0, 0, err
	}
	c1, err := pi.coord(j)
	if err != nil {
		return 0, 0, err
	}
	if c1 < c0 {
		c1 = c0
	}
	return c0, c1, nil
}

// positionAtCoord converts a linear coordinate back to a network position.
func (pi *lazyPath) positionAtCoord(coord float64) roadnet.Position {
	k := sort.Search(len(pi.EdgeCum), func(i int) bool { return pi.EdgeCum[i] > coord })
	if k > 0 {
		k--
	}
	nd := coord - pi.EdgeCum[k]
	length := pi.g.Edge(pi.Edges[k]).Length
	if nd > length {
		nd = length
	}
	if nd < 0 {
		nd = 0
	}
	return roadnet.Position{Edge: pi.Edges[k], NDist: nd}
}

// locationAt interpolates the position at time t between points i and i+1,
// decoding exactly the two distances it needs.
func (pi *lazyPath) locationAt(i int, ti, ti1, t int64) (roadnet.Position, error) {
	if ti1 <= ti || i+1 >= len(pi.PointEdge) {
		c, err := pi.coord(i)
		if err != nil {
			return roadnet.Position{}, err
		}
		return pi.positionAtCoord(c), nil
	}
	c0, c1, err := pi.orderedCoords(i, i+1)
	if err != nil {
		return roadnet.Position{}, err
	}
	frac := float64(t-ti) / float64(ti1-ti)
	return pi.positionAtCoord(c0 + (c1-c0)*frac), nil
}

// passagesAt finds the bracketing point and fraction of every traversal of
// loc.  Point comparisons on other edges are resolved from the skeleton;
// only same-edge comparisons decode distances.
func (pi *lazyPath) passagesAt(loc roadnet.Position) ([]passage, error) {
	return pi.appendPassagesAt(nil, loc)
}

// appendPassagesAt is passagesAt appending into a caller-owned buffer, so
// a recycled buffer makes the lookup allocation-free.
func (pi *lazyPath) appendPassagesAt(out []passage, loc roadnet.Position) ([]passage, error) {
	n := len(pi.PointEdge)
	if n == 0 {
		return out, nil
	}
	var ferr error
	after := func(x int, qcoord float64, k int) bool {
		// Reports whether point x lies strictly after qcoord on the path.
		pe := pi.PointEdge[x]
		if pe < k {
			return false
		}
		if pe > k {
			return true
		}
		c, err := pi.coord(x)
		if err != nil {
			ferr = err
			return false
		}
		return c > qcoord
	}
	for k, e := range pi.Edges {
		if e != loc.Edge {
			continue
		}
		qcoord := pi.EdgeCum[k] + loc.NDist
		idx := sort.Search(n, func(x int) bool { return after(x, qcoord, k) })
		if ferr != nil {
			return out, ferr
		}
		i := idx - 1
		if i < 0 {
			continue // before the first sampled point
		}
		ci, err := pi.coord(i)
		if err != nil {
			return out, err
		}
		if ci > qcoord {
			continue
		}
		if i == n-1 {
			if qcoord <= ci {
				out = append(out, passage{i: maxI(i-1, 0), frac: 1})
			}
			continue // beyond the last sampled point
		}
		_, c1, err := pi.orderedCoords(i, i+1)
		if err != nil {
			return out, err
		}
		if qcoord > c1 {
			continue
		}
		frac := 0.0
		if c1 > ci {
			frac = (qcoord - ci) / (c1 - ci)
		}
		out = append(out, passage{i: i, frac: frac})
	}
	return out, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
