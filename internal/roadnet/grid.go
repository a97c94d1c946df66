package roadnet

import "math"

// Rect is an axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether (x, y) lies inside r (inclusive bounds).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// RegionID identifies a grid cell; IDs are dense in [0, NumRegions).
type RegionID int32

// NoRegion is the invalid region sentinel.
const NoRegion RegionID = -1

// Grid partitions a road network's bounding box into nx × ny equal cells,
// each a region re of the StIU spatial index (Section 5.2).
type Grid struct {
	bounds Rect
	nx, ny int
	cw, ch float64
}

// NewGrid builds an nx × ny grid over the graph's bounding box.
func NewGrid(g *Graph, nx, ny int) *Grid {
	return NewGridOver(g.Bounds(), nx, ny)
}

// NewGridOver builds an nx × ny grid over an explicit bounding box.
func NewGridOver(bounds Rect, nx, ny int) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	return &Grid{bounds: bounds, nx: nx, ny: ny, cw: w / float64(nx), ch: h / float64(ny)}
}

// NumRegions returns nx*ny.
func (gr *Grid) NumRegions() int { return gr.nx * gr.ny }

// Dims returns (nx, ny).
func (gr *Grid) Dims() (int, int) { return gr.nx, gr.ny }

// CellOf returns the region containing (x, y); coordinates outside the
// bounds are clamped to the border cells.
func (gr *Grid) CellOf(x, y float64) RegionID {
	cx := int((x - gr.bounds.MinX) / gr.cw)
	cy := int((y - gr.bounds.MinY) / gr.ch)
	cx = clamp(cx, 0, gr.nx-1)
	cy = clamp(cy, 0, gr.ny-1)
	return RegionID(cy*gr.nx + cx)
}

// CellRect returns the rectangle of a region.
func (gr *Grid) CellRect(id RegionID) Rect {
	cx := int(id) % gr.nx
	cy := int(id) / gr.nx
	return Rect{
		MinX: gr.bounds.MinX + float64(cx)*gr.cw,
		MinY: gr.bounds.MinY + float64(cy)*gr.ch,
		MaxX: gr.bounds.MinX + float64(cx+1)*gr.cw,
		MaxY: gr.bounds.MinY + float64(cy+1)*gr.ch,
	}
}

// CellSpan returns the column span [x0, x1] and row span [y0, y1] of the
// cells rect intersects, each clamped to the grid.  An inverted rect can
// give x0 > x1 or y0 > y1: it then covers no cell.
func (gr *Grid) CellSpan(rect Rect) (x0, y0, x1, y1 int) {
	x0 = clamp(int((rect.MinX-gr.bounds.MinX)/gr.cw), 0, gr.nx-1)
	x1 = clamp(int((rect.MaxX-gr.bounds.MinX)/gr.cw), 0, gr.nx-1)
	y0 = clamp(int((rect.MinY-gr.bounds.MinY)/gr.ch), 0, gr.ny-1)
	y1 = clamp(int((rect.MaxY-gr.bounds.MinY)/gr.ch), 0, gr.ny-1)
	return x0, y0, x1, y1
}

// CellsInRect returns the regions whose cells intersect rect, row by row
// and each row by ascending column.
func (gr *Grid) CellsInRect(rect Rect) []RegionID {
	x0, y0, x1, y1 := gr.CellSpan(rect)
	var out []RegionID
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			out = append(out, RegionID(cy*gr.nx+cx))
		}
	}
	return out
}

// AppendCellsOfEdge appends to dst the ordered distinct regions an edge
// passes through, from the edge's start towards its end.
func (gr *Grid) AppendCellsOfEdge(dst []RegionID, g *Graph, e EdgeID) []RegionID {
	edge := g.Edge(e)
	a, b := g.Vertex(edge.From), g.Vertex(edge.To)
	return gr.AppendCellsOfSegment(dst, a.X, a.Y, b.X, b.Y)
}

// AppendCellsOfSegment appends to dst the ordered distinct regions
// crossed by the segment from (ax, ay) to (bx, by).  The traversal is
// exact: it advances through every grid-line crossing, so no clipped cell
// is missed (the spatial index must never under-report which regions an
// edge touches).
func (gr *Grid) AppendCellsOfSegment(dst []RegionID, ax, ay, bx, by float64) []RegionID {
	cx := int((ax - gr.bounds.MinX) / gr.cw)
	cy := int((ay - gr.bounds.MinY) / gr.ch)
	ex := int((bx - gr.bounds.MinX) / gr.cw)
	ey := int((by - gr.bounds.MinY) / gr.ch)
	cx, cy = clamp(cx, 0, gr.nx-1), clamp(cy, 0, gr.ny-1)
	ex, ey = clamp(ex, 0, gr.nx-1), clamp(ey, 0, gr.ny-1)

	out := append(dst, RegionID(cy*gr.nx+cx))
	if cx == ex && cy == ey {
		return out
	}
	dx, dy := bx-ax, by-ay
	stepX, stepY := sign(dx), sign(dy)
	// Parameter t of the next vertical / horizontal grid-line crossing.
	nextT := func(c int, step int, origin, d, min, cell float64) float64 {
		if step == 0 || d == 0 {
			return math.Inf(1)
		}
		var boundary float64
		if step > 0 {
			boundary = min + float64(c+1)*cell
		} else {
			boundary = min + float64(c)*cell
		}
		return (boundary - origin) / d
	}
	for steps := 0; steps < gr.nx+gr.ny+4; steps++ {
		if cx == ex && cy == ey {
			break
		}
		tx := nextT(cx, stepX, ax, dx, gr.bounds.MinX, gr.cw)
		ty := nextT(cy, stepY, ay, dy, gr.bounds.MinY, gr.ch)
		if tx <= ty {
			cx = clamp(cx+stepX, 0, gr.nx-1)
		} else {
			cy = clamp(cy+stepY, 0, gr.ny-1)
		}
		id := RegionID(cy*gr.nx + cx)
		if out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// RegionOfPosition returns the region containing a network position.
func (gr *Grid) RegionOfPosition(g *Graph, p Position) RegionID {
	x, y := g.Coords(p)
	return gr.CellOf(x, y)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// IntersectsSegment reports whether the segment (x1,y1)-(x2,y2) intersects
// the rectangle (used by the range-query Lemma 2 tests).
func (r Rect) IntersectsSegment(x1, y1, x2, y2 float64) bool {
	if r.Contains(x1, y1) || r.Contains(x2, y2) {
		return true
	}
	// Liang-Barsky clipping: the segment intersects iff a parameter range
	// survives clipping against all four half-planes.
	t0, t1 := 0.0, 1.0
	dx, dy := x2-x1, y2-y1
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	return clip(-dx, x1-r.MinX) && clip(dx, r.MaxX-x1) &&
		clip(-dy, y1-r.MinY) && clip(dy, r.MaxY-y1)
}
