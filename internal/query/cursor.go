package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"utcq/internal/core"
	"utcq/internal/roadnet"
)

// instCursor answers point queries on one instance straight off its
// record's bit stream.  It walks the instance's (E, T') sequence forward
// through a core.InstReader only as far as a query needs, recording the
// edge skeleton it passes (edge, cumulative length, and the edge index of
// every placed point), and decodes relative distances forward only up to
// the last point a query asks for.
//
// The skeleton arithmetic is the historical lazyPath's, operation for
// operation: EdgeCum accumulates sequentially, a point's coordinate is
// EdgeCum[edge] + d·length, and positionAtCoord picks the last edge whose
// EdgeCum is <= the coordinate — walking on past the query's points when a
// coordinate reaches the next edge's start — so results are bit-identical
// (TestCursorMatchesLazyPath pins this).
//
// Cursors are pooled and reused; every buffer keeps its capacity, so a
// warm cursor allocates nothing.  A cursor is not safe for concurrent use.
type instCursor struct {
	rd  core.InstReader
	g   *roadnet.Graph
	n   int // number of points
	cur roadnet.VertexID
	cum float64 // length of the walked edges

	edges     []roadnet.EdgeID
	edgeCum   []float64 // edgeCum[k]: path length before edges[k]
	pointEdge []int     // index into edges per placed point
	d         []float64 // relative distances decoded so far
}

var cursorPool = sync.Pool{New: func() any { return new(instCursor) }}

func getCursor() *instCursor { return cursorPool.Get().(*instCursor) }

func putCursor(c *instCursor) {
	c.rd.Release()
	c.g = nil
	cursorPool.Put(c)
}

// reset points the cursor at instance orig of trajectory j.
func (c *instCursor) reset(a *core.Archive, j, orig int) error {
	if err := c.rd.Reset(a, j, orig); err != nil {
		return err
	}
	c.g, c.n = a.Graph, a.Trajs[j].NumPoints
	c.cur, c.cum = c.rd.SV(), 0
	c.edges, c.edgeCum = c.edges[:0], c.edgeCum[:0]
	c.pointEdge, c.d = c.pointEdge[:0], c.d[:0]
	return nil
}

// step consumes one (E, T') position.  Reaching the end of the sequence
// checks that every point was placed.
func (c *instCursor) step() error {
	no, flag, err := c.rd.Next()
	if err != nil {
		return err
	}
	if no != 0 {
		e, ok := c.g.OutEdge(c.cur, int(no))
		if !ok {
			return fmt.Errorf("query: no outgoing edge %d at vertex %d", no, c.cur)
		}
		c.edges = append(c.edges, e)
		c.edgeCum = append(c.edgeCum, c.cum)
		ed := c.g.Edge(e)
		c.cum += ed.Length
		c.cur = ed.To
	}
	if flag {
		if len(c.edges) == 0 {
			return errors.New("query: point before first edge")
		}
		if len(c.pointEdge) >= c.n {
			return errors.New("query: more set flags than points")
		}
		c.pointEdge = append(c.pointEdge, len(c.edges)-1)
	}
	if c.rd.Done() && len(c.pointEdge) != c.n {
		return fmt.Errorf("query: placed %d of %d points", len(c.pointEdge), c.n)
	}
	return nil
}

// walkToPoint walks until point k is placed.
func (c *instCursor) walkToPoint(k int) error {
	for len(c.pointEdge) <= k {
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// walkAll walks the whole sequence.
func (c *instCursor) walkAll() error {
	for !c.rd.Done() {
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// coord returns the linear path coordinate of a placed point k, decoding
// distances forward up to it.
func (c *instCursor) coord(k int) (float64, error) {
	for len(c.d) <= k {
		d, err := c.rd.NextD()
		if err != nil {
			return 0, err
		}
		c.d = append(c.d, d)
	}
	ei := c.pointEdge[k]
	return c.edgeCum[ei] + c.d[k]*c.g.Edge(c.edges[ei]).Length, nil
}

// orderedCoords returns monotone coordinates for two adjacent placed
// points (quantization can perturb same-edge ordering slightly).
func (c *instCursor) orderedCoords(i, j int) (float64, float64, error) {
	c0, err := c.coord(i)
	if err != nil {
		return 0, 0, err
	}
	c1, err := c.coord(j)
	if err != nil {
		return 0, 0, err
	}
	if c1 < c0 {
		c1 = c0
	}
	return c0, c1, nil
}

// positionAtCoord converts a linear coordinate at or past the walked
// points back to a network position: the last edge whose start is <=
// coord, walking on until an edge starts past it or the path ends.
func (c *instCursor) positionAtCoord(coord float64) (roadnet.Position, error) {
	for !c.rd.Done() && c.edgeCum[len(c.edgeCum)-1] <= coord {
		if err := c.step(); err != nil {
			return roadnet.Position{}, err
		}
	}
	k := sort.Search(len(c.edgeCum), func(i int) bool { return c.edgeCum[i] > coord })
	if k > 0 {
		k--
	}
	nd := coord - c.edgeCum[k]
	length := c.g.Edge(c.edges[k]).Length
	if nd > length {
		nd = length
	}
	if nd < 0 {
		nd = 0
	}
	return roadnet.Position{Edge: c.edges[k], NDist: nd}, nil
}

// locationAt interpolates the position at time t between points i and
// i+1, reading the sequence up to point i+1 and decoding D up to it.
func (c *instCursor) locationAt(i int, ti, ti1 int64, t int64) (roadnet.Position, error) {
	if ti1 <= ti || i+1 >= c.n {
		if err := c.walkToPoint(i); err != nil {
			return roadnet.Position{}, err
		}
		co, err := c.coord(i)
		if err != nil {
			return roadnet.Position{}, err
		}
		return c.positionAtCoord(co)
	}
	if err := c.walkToPoint(i + 1); err != nil {
		return roadnet.Position{}, err
	}
	c0, c1, err := c.orderedCoords(i, i+1)
	if err != nil {
		return roadnet.Position{}, err
	}
	frac := float64(t-ti) / float64(ti1-ti)
	return c.positionAtCoord(c0 + (c1-c0)*frac)
}

// subpath returns the edges from point i's to point i+1's (point i's
// alone for the last point), reading the sequence up to point i+1.
func (c *instCursor) subpath(i int) ([]roadnet.EdgeID, error) {
	last := min(i+1, c.n-1)
	if err := c.walkToPoint(last); err != nil {
		return nil, err
	}
	return c.edges[c.pointEdge[i] : c.pointEdge[last]+1], nil
}

// appendPassagesAt walks the whole sequence and appends the bracketing
// point and fraction of every traversal of loc.  Point comparisons on
// other edges are resolved from the skeleton; only same-edge comparisons
// decode distances.
func (c *instCursor) appendPassagesAt(out []passage, loc roadnet.Position) ([]passage, error) {
	if err := c.walkAll(); err != nil {
		return out, err
	}
	n := len(c.pointEdge)
	if n == 0 {
		return out, nil
	}
	var ferr error
	after := func(x int, qcoord float64, k int) bool {
		// Reports whether point x lies strictly after qcoord on the path.
		pe := c.pointEdge[x]
		if pe < k {
			return false
		}
		if pe > k {
			return true
		}
		co, err := c.coord(x)
		if err != nil {
			ferr = err
			return false
		}
		return co > qcoord
	}
	for k, e := range c.edges {
		if e != loc.Edge {
			continue
		}
		qcoord := c.edgeCum[k] + loc.NDist
		idx := sort.Search(n, func(x int) bool { return after(x, qcoord, k) })
		if ferr != nil {
			return out, ferr
		}
		i := idx - 1
		if i < 0 {
			continue // before the first sampled point
		}
		ci, err := c.coord(i)
		if err != nil {
			return out, err
		}
		if ci > qcoord {
			continue
		}
		if i == n-1 {
			if qcoord <= ci {
				out = append(out, passage{i: max(i-1, 0), frac: 1})
			}
			continue // beyond the last sampled point
		}
		_, c1, err := c.orderedCoords(i, i+1)
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
