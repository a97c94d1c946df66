package roadnet

import "math"

// EdgeIndex is a uniform-grid spatial index over edges, used by map
// matching to find candidate edges near a raw GPS point.
type EdgeIndex struct {
	g       *Graph
	grid    *Grid
	buckets [][]EdgeID
}

// NewEdgeIndex builds an index whose buckets are roughly cell meters wide.
func NewEdgeIndex(g *Graph, cell float64) *EdgeIndex {
	b := g.Bounds()
	nx := int((b.MaxX-b.MinX)/cell) + 1
	ny := int((b.MaxY-b.MinY)/cell) + 1
	grid := NewGridOver(b, nx, ny)
	ix := &EdgeIndex{g: g, grid: grid, buckets: make([][]EdgeID, grid.NumRegions())}
	var cells []RegionID
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		cells = grid.AppendCellsOfEdge(cells[:0], g, id)
		for _, r := range cells {
			ix.buckets[r] = append(ix.buckets[r], id)
		}
	}
	return ix
}

// Nearby returns edges whose buckets intersect the disk of the given radius
// around (x, y).  Callers filter by exact projection distance.
func (ix *EdgeIndex) Nearby(x, y, radius float64) []EdgeID {
	rect := Rect{MinX: x - radius, MinY: y - radius, MaxX: x + radius, MaxY: y + radius}
	var out []EdgeID
	seen := make(map[EdgeID]struct{})
	for _, r := range ix.grid.CellsInRect(rect) {
		for _, e := range ix.buckets[r] {
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	return out
}

// Project returns the point on edge e closest to (x, y): its network
// distance from the edge start and the Euclidean distance from (x, y) to it.
func (g *Graph) Project(e EdgeID, x, y float64) (ndist, dist float64) {
	edge := g.edges[e]
	a, b := g.vertices[edge.From], g.vertices[edge.To]
	dx, dy := b.X-a.X, b.Y-a.Y
	den := dx*dx + dy*dy
	t := 0.0
	if den > 0 {
		t = ((x-a.X)*dx + (y-a.Y)*dy) / den
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	px, py := a.X+dx*t, a.Y+dy*t
	return t * edge.Length, math.Hypot(x-px, y-py)
}

// NearestEdges returns up to k edges closest to (x, y) within radius,
// ordered by projection distance.
func (ix *EdgeIndex) NearestEdges(x, y, radius float64, k int) []Position {
	type cand struct {
		pos  Position
		dist float64
	}
	var cands []cand
	for _, e := range ix.Nearby(x, y, radius) {
		nd, d := ix.g.Project(e, x, y)
		if d <= radius {
			cands = append(cands, cand{Position{Edge: e, NDist: nd}, d})
		}
	}
	// Insertion sort: candidate lists are tiny.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].dist < cands[j-1].dist; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if k > 0 && len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Position, len(cands))
	for i, c := range cands {
		out[i] = c.pos
	}
	return out
}
