package roadnet

import (
	"math"
	"slices"
	"testing"
)

// buildFig2Like builds a small network resembling Fig 2 of the paper:
// a corridor v1..v8 with a detour v2->v10->v4 and a branch v8->v9.
func buildFig2Like() (*Graph, map[string]VertexID) {
	b := NewBuilder()
	names := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"}
	coords := map[string][2]float64{
		"v1": {0, 0}, "v2": {100, 0}, "v3": {200, 0}, "v4": {300, 0},
		"v5": {400, 0}, "v6": {500, 0}, "v7": {700, 0}, "v8": {800, 0},
		"v9": {800, -100}, "v10": {200, 100},
	}
	ids := make(map[string]VertexID)
	for _, n := range names {
		c := coords[n]
		ids[n] = b.AddVertex(c[0], c[1])
	}
	// Main corridor.
	for i := 0; i < 7; i++ {
		b.AddEdge(ids[names[i]], ids[names[i+1]])
	}
	// Detour and branch.
	b.AddEdge(ids["v2"], ids["v10"])
	b.AddEdge(ids["v10"], ids["v4"])
	b.AddEdge(ids["v8"], ids["v9"])
	return b.Build(), ids
}

func TestOutEdgeNumbers(t *testing.T) {
	g, ids := buildFig2Like()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// v2 has two out-edges: (v2->v3) added first (OutNo 1), (v2->v10) second.
	e1, ok := g.OutEdge(ids["v2"], 1)
	if !ok || g.Edge(e1).To != ids["v3"] {
		t.Errorf("OutEdge(v2, 1) -> %v, want edge to v3", g.Edge(e1).To)
	}
	e2, ok := g.OutEdge(ids["v2"], 2)
	if !ok || g.Edge(e2).To != ids["v10"] {
		t.Errorf("OutEdge(v2, 2) -> %v, want edge to v10", g.Edge(e2).To)
	}
	if _, ok := g.OutEdge(ids["v2"], 3); ok {
		t.Error("OutEdge(v2, 3) should not exist")
	}
	if _, ok := g.OutEdge(ids["v2"], 0); ok {
		t.Error("OutEdge(v2, 0) should not exist: numbers are 1-based")
	}
}

func TestEdgeBetween(t *testing.T) {
	g, ids := buildFig2Like()
	if e, ok := g.EdgeBetween(ids["v1"], ids["v2"]); !ok || g.Edge(e).From != ids["v1"] {
		t.Error("EdgeBetween(v1, v2) not found")
	}
	if _, ok := g.EdgeBetween(ids["v2"], ids["v1"]); ok {
		t.Error("EdgeBetween(v2, v1) should not exist (directed)")
	}
}

func TestPositionsAndRD(t *testing.T) {
	g, ids := buildFig2Like()
	e, _ := g.EdgeBetween(ids["v1"], ids["v2"]) // length 100
	p := Position{Edge: e, NDist: 25}
	if rd := g.RD(p); rd != 0.25 {
		t.Errorf("RD = %g, want 0.25", rd)
	}
	x, y := g.Coords(p)
	if x != 25 || y != 0 {
		t.Errorf("Coords = (%g, %g), want (25, 0)", x, y)
	}
	back := g.PositionAtRD(e, 0.25)
	if back.NDist != 25 {
		t.Errorf("PositionAtRD = %g, want 25", back.NDist)
	}
}

func TestShortestPathSameEdge(t *testing.T) {
	g, ids := buildFig2Like()
	e, _ := g.EdgeBetween(ids["v1"], ids["v2"])
	path, d, ok := g.ShortestPath(Position{e, 10}, Position{e, 90}, 1e9)
	if !ok || d != 80 || len(path) != 1 {
		t.Fatalf("same-edge path: d=%g ok=%v len=%d", d, ok, len(path))
	}
}

func TestShortestPathCorridor(t *testing.T) {
	g, ids := buildFig2Like()
	e12, _ := g.EdgeBetween(ids["v1"], ids["v2"])
	e45, _ := g.EdgeBetween(ids["v4"], ids["v5"])
	a := Position{e12, 50}
	bp := Position{e45, 50}
	path, d, ok := g.ShortestPath(a, bp, 1e9)
	if !ok {
		t.Fatal("no path found")
	}
	// 50 to v2, 100 v2->v3, 100 v3->v4, 50 into v4->v5 = 300.
	if math.Abs(d-300) > 1e-9 {
		t.Errorf("distance = %g, want 300", d)
	}
	if !g.IsPath(path) {
		t.Error("returned edge sequence is not connected")
	}
	if path[0] != e12 || path[len(path)-1] != e45 {
		t.Error("path endpoints wrong")
	}
}

func TestShortestPathBound(t *testing.T) {
	g, ids := buildFig2Like()
	e12, _ := g.EdgeBetween(ids["v1"], ids["v2"])
	e78, _ := g.EdgeBetween(ids["v7"], ids["v8"])
	if _, ok := g.NetworkDistance(Position{e12, 0}, Position{e78, 0}, 100); ok {
		t.Error("bounded search should fail for a distant target")
	}
	d, ok := g.NetworkDistance(Position{e12, 0}, Position{e78, 0}, 1e9)
	if !ok || d != 700 {
		t.Errorf("distance = %g ok=%v, want 700", d, ok)
	}
}

func TestUndirectedEdgeCount(t *testing.T) {
	b := NewBuilder()
	u := b.AddVertex(0, 0)
	v := b.AddVertex(100, 0)
	w := b.AddVertex(200, 0)
	b.AddEdge(u, v)
	b.AddEdge(v, u)
	b.AddEdge(v, w) // one-way
	g := b.Build()
	if got := g.UndirectedEdgeCount(); got != 2 {
		t.Errorf("UndirectedEdgeCount = %d, want 2", got)
	}
}

func TestGridCells(t *testing.T) {
	g, _ := buildFig2Like()
	grid := NewGrid(g, 4, 4)
	if grid.NumRegions() != 16 {
		t.Fatalf("NumRegions = %d", grid.NumRegions())
	}
	bounds := g.Bounds()
	// Every vertex must land in a valid cell whose rect contains it.
	for i := 0; i < g.NumVertices(); i++ {
		v := g.Vertex(VertexID(i))
		id := grid.CellOf(v.X, v.Y)
		if id < 0 || int(id) >= grid.NumRegions() {
			t.Fatalf("vertex %d: invalid region %d", i, id)
		}
		r := grid.CellRect(id)
		if !r.Contains(v.X, v.Y) {
			t.Errorf("vertex %d at (%g,%g) not inside cell rect %+v", i, v.X, v.Y, r)
		}
	}
	// CellsInRect over the whole bounds covers everything.
	if got := len(grid.CellsInRect(bounds)); got != 16 {
		t.Errorf("CellsInRect(bounds) = %d cells, want 16", got)
	}
}

func TestCellsOfSegmentOrdered(t *testing.T) {
	g, _ := buildFig2Like()
	grid := NewGrid(g, 8, 8)
	cells := grid.AppendCellsOfSegment(nil, 0, 0, 800, 0)
	if len(cells) < 2 {
		t.Fatalf("expected multiple cells, got %d", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i] == cells[i-1] {
			t.Error("consecutive duplicate cells")
		}
	}
	// Appending keeps the caller's prefix and appends the same cells.
	more := grid.AppendCellsOfSegment(cells[:1:1], 0, 0, 800, 0)
	if !slices.Equal(more[:1], cells[:1]) || !slices.Equal(more[1:], cells) {
		t.Errorf("append to a one-cell prefix gave %v, want %v after %v", more, cells, cells[:1])
	}
}

func TestEdgeIndexNearest(t *testing.T) {
	g, ids := buildFig2Like()
	ix := NewEdgeIndex(g, 150)
	// A point 10m above the v3->v4 edge midpoint.
	cands := ix.NearestEdges(250, 10, 60, 4)
	if len(cands) == 0 {
		t.Fatal("no candidates found")
	}
	e34, _ := g.EdgeBetween(ids["v3"], ids["v4"])
	if cands[0].Edge != e34 {
		t.Errorf("nearest edge = %d, want v3->v4 (%d)", cands[0].Edge, e34)
	}
	if math.Abs(cands[0].NDist-50) > 1e-9 {
		t.Errorf("projected ndist = %g, want 50", cands[0].NDist)
	}
}

func TestProjectClampsToSegment(t *testing.T) {
	g, ids := buildFig2Like()
	e, _ := g.EdgeBetween(ids["v1"], ids["v2"])
	nd, d := g.Project(e, -50, 30) // before the segment start
	if nd != 0 {
		t.Errorf("ndist = %g, want 0 (clamped)", nd)
	}
	if math.Abs(d-math.Hypot(50, 30)) > 1e-9 {
		t.Errorf("dist = %g", d)
	}
}

func TestGenerateStats(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Cols, cfg.Rows = 20, 20
	cfg.SegmentsPerVertex = 1.3
	g := Generate(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	segs := g.UndirectedEdgeCount()
	ratio := float64(segs) / float64(g.NumVertices())
	if ratio < 1.0 || ratio > 1.45 {
		t.Errorf("segments per vertex = %g, want near 1.3", ratio)
	}
	avg := g.AvgOutDegree()
	if avg < 2.0 || avg > 2.9 {
		t.Errorf("avg out degree = %g, want in [2.0, 2.9]", avg)
	}
	if g.MaxOutDegree() < 3 || g.MaxOutDegree() > 8 {
		t.Errorf("max out degree = %d", g.MaxOutDegree())
	}
}

func TestGenerateStronglyConnectedCore(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Cols, cfg.Rows = 12, 12
	g := Generate(cfg)
	// Every vertex must be reachable from vertex 0 and reach vertex 0
	// (the spanning tree is bidirectional).
	n := g.NumVertices()
	reach := func(from VertexID) int {
		seen := make([]bool, n)
		stack := []VertexID{from}
		seen[from] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.OutEdges(v) {
				to := g.Edge(e).To
				if !seen[to] {
					seen[to] = true
					count++
					stack = append(stack, to)
				}
			}
		}
		return count
	}
	if got := reach(0); got != n {
		t.Errorf("only %d of %d vertices reachable from v0", got, n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	g1 := Generate(cfg)
	g2 := Generate(cfg)
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	for i := 0; i < g1.NumEdges(); i++ {
		a, b := g1.Edge(EdgeID(i)), g2.Edge(EdgeID(i))
		if a != b {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func BenchmarkShortestPath(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.Cols, cfg.Rows = 40, 40
	g := Generate(cfg)
	src := Position{Edge: 0, NDist: 0}
	dst := Position{Edge: EdgeID(g.NumEdges() - 1), NDist: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(src, dst, 1e12)
	}
}
