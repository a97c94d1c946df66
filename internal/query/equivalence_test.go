package query

import (
	"math"
	"math/rand"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/ted"
)

// harness bundles all three query paths over one generated dataset.
type harness struct {
	ds     *gen.Dataset
	eng    *Engine
	tedEng *TEDEngine
	oracle *Oracle
}

func buildHarness(t *testing.T, p gen.Profile, n int, seed int64) *harness {
	t.Helper()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(p.Ts)
	c, err := core.NewCompressor(ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	sopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	ix, err := stiu.Build(a, sopts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := ted.NewCompressor(ds.Graph, ted.Options{EtaD: opts.EtaD, EtaP: opts.EtaP, Ts: p.Ts})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := tc.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	tix, err := BuildTEDIndex(ta, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		ds:     ds,
		eng:    NewEngine(a, ix),
		tedEng: NewTEDEngine(ta, tix),
		oracle: NewOracle(ds.Graph, ds.Trajectories),
	}
}

// pNearAlpha reports whether an instance's probability is too close to the
// threshold to compare result membership across the lossy encodings.
func pNearAlpha(h *harness, j, inst int, alpha float64) bool {
	return math.Abs(h.ds.Trajectories[j].Instances[inst].P-alpha) <= h.eng.Arch.Opts.EtaP+1e-9
}

func TestWhereEquivalence(t *testing.T) {
	h := buildHarness(t, gen.CD(), 40, 21)
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		j := rng.Intn(len(h.ds.Trajectories))
		T := h.ds.Trajectories[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		alpha := []float64{0, 0.1, 0.3}[rng.Intn(3)]

		want, err := h.oracle.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, impl := range []struct {
			name string
			run  func() ([]WhereResult, error)
		}{
			{"utcq", func() ([]WhereResult, error) { return h.eng.Where(j, tq, alpha) }},
			{"ted", func() ([]WhereResult, error) { return h.tedEng.Where(j, tq, alpha) }},
		} {
			got, err := impl.run()
			if err != nil {
				t.Fatalf("%s: %v", impl.name, err)
			}
			gotBy := map[int]WhereResult{}
			for _, r := range got {
				gotBy[r.Inst] = r
			}
			for _, w := range want {
				g, ok := gotBy[w.Inst]
				if !ok {
					if pNearAlpha(h, j, w.Inst, alpha) {
						continue
					}
					t.Fatalf("%s traj %d t=%d a=%g: missing instance %d", impl.name, j, tq, alpha, w.Inst)
				}
				gx, gy := h.ds.Graph.Coords(g.Loc)
				wx, wy := h.ds.Graph.Coords(w.Loc)
				if d := math.Hypot(gx-wx, gy-wy); d > 25 {
					t.Errorf("%s traj %d t=%d inst %d: off by %.1fm", impl.name, j, tq, w.Inst, d)
				}
			}
			for inst := range gotBy {
				found := false
				for _, w := range want {
					if w.Inst == inst {
						found = true
					}
				}
				if !found && !pNearAlpha(h, j, inst, alpha) {
					t.Fatalf("%s traj %d: spurious instance %d", impl.name, j, inst)
				}
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d checks ran", checked)
	}
}

// TestWhenEquivalence checks the engine's when answers against the
// uncompressed oracle on all three road networks.  A Lemma-1 gate that
// wrongly reports "no instance enters this cell" drops passages here.
func TestWhenEquivalence(t *testing.T) {
	for _, pr := range sweepProfiles {
		t.Run(pr.name, func(t *testing.T) {
			checkWhenEquivalence(t, buildHarness(t, pr.p, 30, pr.seed))
		})
	}
}

func checkWhenEquivalence(t *testing.T, h *harness) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		j := rng.Intn(len(h.ds.Trajectories))
		u := h.ds.Trajectories[j]
		// Query a location on a random instance's path.
		inst := rng.Intn(len(u.Instances))
		pi, err := h.oracle.path(j, inst)
		if err != nil {
			t.Fatal(err)
		}
		edge := pi.Edges[rng.Intn(len(pi.Edges))]
		loc := h.ds.Graph.PositionAtRD(edge, rng.Float64())
		alpha := []float64{0, 0.05, 0.2}[rng.Intn(3)]

		want, err := h.oracle.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.eng.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		// Compare per-instance passage counts and times.
		wantBy := map[int][]int64{}
		for _, w := range want {
			wantBy[w.Inst] = append(wantBy[w.Inst], w.T)
		}
		gotBy := map[int][]int64{}
		for _, g := range got {
			gotBy[g.Inst] = append(gotBy[g.Inst], g.T)
		}
		for inst, wts := range wantBy {
			gts, ok := gotBy[inst]
			if !ok {
				if pNearAlpha(h, j, inst, alpha) {
					continue
				}
				t.Fatalf("traj %d inst %d: no passages found (want %v)", j, inst, wts)
			}
			if len(gts) != len(wts) {
				t.Fatalf("traj %d inst %d: %d passages, want %d", j, inst, len(gts), len(wts))
			}
			for k := range wts {
				// Time differences stem from quantized distances shifting
				// the interpolation; they are bounded by the sample
				// interval at these error bounds.
				if d := math.Abs(float64(gts[k] - wts[k])); d > float64(h.ds.Profile.Ts)+30 {
					t.Errorf("traj %d inst %d passage %d: t off by %.0fs", j, inst, k, d)
				}
			}
		}
		for inst := range gotBy {
			if _, ok := wantBy[inst]; !ok && !pNearAlpha(h, j, inst, alpha) {
				t.Fatalf("traj %d: spurious passages for instance %d", j, inst)
			}
		}
	}
}

func TestRangeEquivalence(t *testing.T) {
	h := buildHarness(t, gen.CD(), 40, 44)
	rng := rand.New(rand.NewSource(9))
	bounds := h.ds.Graph.Bounds()
	mismatches := 0
	for trial := 0; trial < 120; trial++ {
		j := rng.Intn(len(h.ds.Trajectories))
		T := h.ds.Trajectories[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		w := (bounds.MaxX - bounds.MinX) * (0.05 + rng.Float64()*0.2)
		hgt := (bounds.MaxY - bounds.MinY) * (0.05 + rng.Float64()*0.2)
		x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX-w)
		y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY-hgt)
		re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + hgt}
		alpha := []float64{0.2, 0.5, 0.8}[rng.Intn(3)]

		want, err := h.oracle.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := map[int]bool{}
		for _, j := range want {
			wantSet[j] = true
		}
		gotSet := map[int]bool{}
		for _, j := range got {
			gotSet[j] = true
		}
		for _, j := range want {
			if !gotSet[j] {
				mismatches++ // borderline: quantized locations/probabilities
			}
		}
		for _, j := range got {
			if !wantSet[j] {
				mismatches++
			}
		}
	}
	// Quantization can flip borderline trajectories; systematic errors
	// would flip far more than a handful.
	if mismatches > 12 {
		t.Errorf("%d membership mismatches across 120 random range queries", mismatches)
	}
}

// TestRangePruningConsistency: pruning on and off must agree exactly.
func TestRangePruningConsistency(t *testing.T) {
	h := buildHarness(t, gen.CD(), 30, 55)
	rng := rand.New(rand.NewSource(11))
	bounds := h.ds.Graph.Bounds()
	unpruned := NewEngine(h.eng.Arch, h.eng.Ix)
	unpruned.DisablePruning = true
	for trial := 0; trial < 100; trial++ {
		j := rng.Intn(len(h.ds.Trajectories))
		T := h.ds.Trajectories[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		w := (bounds.MaxX - bounds.MinX) * 0.15
		x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX-w)
		y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY-w)
		re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
		alpha := rng.Float64()

		a, err := h.eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		b, err := unpruned.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("pruned %v vs unpruned %v (re=%+v t=%d a=%g)", a, b, re, tq, alpha)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("pruned %v vs unpruned %v", a, b)
			}
		}
	}
	if h.eng.Stats().TrajsPruned == 0 {
		t.Error("Lemma 4 never fired across 100 queries")
	}
}

// TestWhenPruningConsistency: Lemma 1 on and off must agree exactly.
func TestWhenPruningConsistency(t *testing.T) {
	h := buildHarness(t, gen.HZ(), 25, 66)
	rng := rand.New(rand.NewSource(13))
	unpruned := NewEngine(h.eng.Arch, h.eng.Ix)
	unpruned.DisablePruning = true
	for trial := 0; trial < 150; trial++ {
		j := rng.Intn(len(h.ds.Trajectories))
		u := h.ds.Trajectories[j]
		inst := rng.Intn(len(u.Instances))
		pi, err := h.oracle.path(j, inst)
		if err != nil {
			t.Fatal(err)
		}
		edge := pi.Edges[rng.Intn(len(pi.Edges))]
		loc := h.ds.Graph.PositionAtRD(edge, rng.Float64())
		alpha := rng.Float64() * 0.5

		a, err := h.eng.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		b, err := unpruned.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("pruned %+v vs unpruned %+v", a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("pruned %+v vs unpruned %+v", a, b)
			}
		}
	}
}
