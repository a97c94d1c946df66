// Package query implements the probabilistic where, when and range queries
// of Section 5.3 over compressed uncertain trajectories: the UTCQ engine
// (StIU index, partial decompression, filtering Lemmas 1-4), the adapted
// TED engine used as the paper's comparison, and an uncompressed oracle
// used for correctness tests and the accuracy experiments of Fig 11.
//
// Concurrency: Engine is safe for concurrent use — one shared instance
// serves any number of goroutines, reading instances through pooled
// per-query cursors and maintaining its work counters atomically; it keeps
// no decoded state between queries.  DisablePruning must be set before
// the engine is shared.  TEDEngine and Oracle remain single-goroutine
// measurement harnesses.
package query

import (
	"fmt"
	"sort"

	"utcq/internal/roadnet"
	"utcq/internal/traj"
)

// pathInfo is a decoded instance traversal prepared for interpolation: the
// distinct edges in order, cumulative lengths, and each mapped location as
// a linear coordinate along the path.
type pathInfo struct {
	P          float64
	Edges      []roadnet.EdgeID
	EdgeCum    []float64 // EdgeCum[k]: path length before Edges[k]
	PointEdge  []int     // index into Edges per point
	PointCoord []float64 // linear path coordinate per point
}

// buildPath decodes (SV, E, TF, D) into a pathInfo.
func buildPath(g *roadnet.Graph, sv roadnet.VertexID, E []uint16, tf []bool, D []float64, p float64) (*pathInfo, error) {
	pi := &pathInfo{P: p}
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
			ei := len(pi.Edges) - 1
			coord := pi.EdgeCum[ei] + D[k]*g.Edge(pi.Edges[ei]).Length
			// Quantized distances may perturb ordering slightly; clamp to
			// keep coordinates monotone for interpolation.
			if n := len(pi.PointCoord); n > 0 && coord < pi.PointCoord[n-1] {
				coord = pi.PointCoord[n-1]
			}
			pi.PointEdge = append(pi.PointEdge, ei)
			pi.PointCoord = append(pi.PointCoord, coord)
			k++
		}
	}
	if k != len(D) {
		return nil, fmt.Errorf("query: placed %d of %d points", k, len(D))
	}
	return pi, nil
}

// buildPathFromInstance is the oracle's entry point.
func buildPathFromInstance(g *roadnet.Graph, ins *traj.Instance) (*pathInfo, error) {
	return buildPath(g, ins.SV, ins.E, ins.TF, ins.D, ins.P)
}

// totalLen returns the path's total length.
func (pi *pathInfo) totalLen(g *roadnet.Graph) float64 {
	last := len(pi.Edges) - 1
	return pi.EdgeCum[last] + g.Edge(pi.Edges[last]).Length
}

// positionAtCoord converts a linear coordinate back to a network position.
func (pi *pathInfo) positionAtCoord(g *roadnet.Graph, coord float64) roadnet.Position {
	k := sort.Search(len(pi.EdgeCum), func(i int) bool { return pi.EdgeCum[i] > coord })
	if k > 0 {
		k--
	}
	nd := coord - pi.EdgeCum[k]
	length := g.Edge(pi.Edges[k]).Length
	if nd > length {
		nd = length
	}
	if nd < 0 {
		nd = 0
	}
	return roadnet.Position{Edge: pi.Edges[k], NDist: nd}
}

// locationAt interpolates the position at time t between points i and i+1
// (constant speed along the path, as in Example 3).
func (pi *pathInfo) locationAt(g *roadnet.Graph, i int, ti, ti1, t int64) roadnet.Position {
	c0 := pi.PointCoord[i]
	if ti1 <= ti || i+1 >= len(pi.PointCoord) {
		return pi.positionAtCoord(g, c0)
	}
	c1 := pi.PointCoord[i+1]
	frac := float64(t-ti) / float64(ti1-ti)
	return pi.positionAtCoord(g, c0+(c1-c0)*frac)
}

// occurrences returns the path-edge indices where edge appears.
func (pi *pathInfo) occurrences(edge roadnet.EdgeID) []int {
	var out []int
	for k, e := range pi.Edges {
		if e == edge {
			out = append(out, k)
		}
	}
	return out
}

// timesAt returns, for a query location, the bracketing point index and
// interpolation fraction for every traversal of that location strictly
// inside the sampled part of the path.
type passage struct {
	i    int     // bracketing point index (between point i and i+1)
	frac float64 // position of the passage between T[i] and T[i+1]
}

func (pi *pathInfo) passagesAt(g *roadnet.Graph, loc roadnet.Position) []passage {
	var out []passage
	for _, k := range pi.occurrences(loc.Edge) {
		qcoord := pi.EdgeCum[k] + loc.NDist
		n := len(pi.PointCoord)
		if n == 0 || qcoord < pi.PointCoord[0] || qcoord > pi.PointCoord[n-1] {
			continue
		}
		// Find i with PointCoord[i] <= qcoord <= PointCoord[i+1].
		i := sort.Search(n, func(x int) bool { return pi.PointCoord[x] > qcoord })
		if i > 0 {
			i--
		}
		if i == n-1 {
			if n < 2 {
				out = append(out, passage{i: 0, frac: 0})
			} else {
				out = append(out, passage{i: i - 1, frac: 1})
			}
			continue
		}
		c0, c1 := pi.PointCoord[i], pi.PointCoord[i+1]
		frac := 0.0
		if c1 > c0 {
			frac = (qcoord - c0) / (c1 - c0)
		}
		out = append(out, passage{i: i, frac: frac})
	}
	return out
}

// WhereResult is one instance's location at the query time.
type WhereResult struct {
	Inst int
	P    float64
	Loc  roadnet.Position
}

// WhenResult is one instance's passage time at the query location.
type WhenResult struct {
	Inst int
	P    float64
	T    int64
}
