package query

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// namedEngine labels one engine of a variant set.
type namedEngine struct {
	name string
	eng  *Engine
}

// succinctVariants builds two engines over the same archive whose StIU
// indexes differ only in provenance: built in memory, with every decode
// cache seeded, and decoded from the sidecar bytes, with every section
// left encoded until first touch.
func succinctVariants(t *testing.T, p gen.Profile, n int, seed int64) (*gen.Dataset, []namedEngine) {
	t.Helper()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	sopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := stiu.Build(a, sopts)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := built.EncodeSidecar(1)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := stiu.DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, []namedEngine{{"built", NewEngine(a, built)}, {"sidecar", NewEngine(a, decoded)}}
}

// sweepProfiles are the three synthetic road networks the variant tests
// sweep, each with its own dataset seed.
var sweepProfiles = []struct {
	name string
	p    gen.Profile
	seed int64
}{
	{"DK", gen.DK(), 31},
	{"CD", gen.CD(), 32},
	{"HZ", gen.HZ(), 33},
}

// sweep runs 80 random where/when/range queries against every variant and
// requires each answer to equal the first variant's.
func sweep(t *testing.T, ds *gen.Dataset, seed int64, variants []namedEngine) {
	t.Helper()
	oracle := NewOracle(ds.Graph, ds.Trajectories)
	rng := rand.New(rand.NewSource(seed * 7))
	bounds := ds.Graph.Bounds()
	for trial := 0; trial < 80; trial++ {
		j := rng.Intn(len(ds.Trajectories))
		T := ds.Trajectories[j].T
		tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
		alpha := rng.Float64() * 0.6

		// Where: identical instance sets and positions.
		base, err := variants[0].eng.Where(j, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants[1:] {
			got, err := v.eng.Where(j, tq, alpha)
			if err != nil {
				t.Fatalf("%s Where: %v", v.name, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s Where(%d, %d, %g) diverged", v.name, j, tq, alpha)
			}
		}

		// When: a location the trajectory actually visits.
		inst := rng.Intn(len(ds.Trajectories[j].Instances))
		pi, err := oracle.path(j, inst)
		if err != nil {
			t.Fatal(err)
		}
		edge := pi.Edges[rng.Intn(len(pi.Edges))]
		loc := ds.Graph.PositionAtRD(edge, rng.Float64())
		baseWhen, err := variants[0].eng.When(j, loc, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants[1:] {
			got, err := v.eng.When(j, loc, alpha)
			if err != nil {
				t.Fatalf("%s When: %v", v.name, err)
			}
			if !reflect.DeepEqual(baseWhen, got) {
				t.Fatalf("%s When(%d, %g) diverged", v.name, j, alpha)
			}
		}

		// Range: random window, shared across variants.
		w := (bounds.MaxX - bounds.MinX) * 0.15
		x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX-w)
		y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY-w)
		re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
		baseRange, err := variants[0].eng.Range(re, tq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants[1:] {
			got, err := v.eng.Range(re, tq, alpha)
			if err != nil {
				t.Fatalf("%s Range: %v", v.name, err)
			}
			if !reflect.DeepEqual(baseRange, got) {
				t.Fatalf("%s Range(%+v, %d, %g) diverged", v.name, re, tq, alpha)
			}
		}
	}
}

// TestSuccinctPruningEquivalence pins seeded ≡ lazily decoded pruning on
// all three synthetic road networks: the same query workload must return
// identical results from a built index and a sidecar-decoded one — and
// take identical pruning decisions, observed through the TrajsPruned /
// InstancesSkipped counters.
func TestSuccinctPruningEquivalence(t *testing.T) {
	for _, pr := range sweepProfiles {
		t.Run(pr.name, func(t *testing.T) {
			ds, variants := succinctVariants(t, pr.p, 25, pr.seed)
			sweep(t, ds, pr.seed, variants)

			// Identical answers must come from identical pruning decisions,
			// not compensating errors.
			base := variants[0].eng.Stats()
			if base.TrajsPruned == 0 {
				t.Error("pruning never fired across the workload")
			}
			for _, v := range variants[1:] {
				st := v.eng.Stats()
				if st.TrajsPruned != base.TrajsPruned || st.InstancesSkipped != base.InstancesSkipped {
					t.Fatalf("%s pruning counters (pruned=%d skipped=%d) != built (pruned=%d skipped=%d)",
						v.name, st.TrajsPruned, st.InstancesSkipped, base.TrajsPruned, base.InstancesSkipped)
				}
			}
		})
	}
}

// TestBuiltIndexServesSeeded pins Build's cache seeding: a freshly built
// index answers a full where/when/range sweep without decoding a single
// bucket or temporal section, while the same sweep on the sidecar-decoded
// index has to decode both.
func TestBuiltIndexServesSeeded(t *testing.T) {
	for _, pr := range sweepProfiles {
		t.Run(pr.name, func(t *testing.T) {
			ds, variants := succinctVariants(t, pr.p, 25, pr.seed)
			sweep(t, ds, pr.seed, variants)
			if st := variants[0].eng.Ix.Stats(); st.RegionBlocksDecoded != 0 || st.TemporalSectionsForced != 0 {
				t.Fatalf("built index decoded %d buckets and %d temporal sections, want 0 and 0",
					st.RegionBlocksDecoded, st.TemporalSectionsForced)
			}
			if st := variants[1].eng.Ix.Stats(); st.RegionBlocksDecoded == 0 || st.TemporalSectionsForced == 0 {
				t.Fatalf("sidecar index decoded %d buckets and %d temporal sections, want both > 0",
					st.RegionBlocksDecoded, st.TemporalSectionsForced)
			}
		})
	}
}

// TestRangeCountersPinned runs a fixed embedded-range-shaped query set on
// HZ — half the rectangles centred on a trajectory, half uniform, sides
// 5-40 % of each axis, α ∈ {0.2, 0.5, 0.8} — against a built and a
// sidecar-decoded engine.  Every answer must equal the oracle's, and the
// answer digest and the TrajsPruned / PathsDecoded /
// RegionPrunedNoTouch / RegionBlocksDecoded totals must equal the values
// the per-cell bucket probe produced before the rectangle accessor
// replaced it: the accessor may change how the Lemma-4 bound is
// gathered, never a decision or a count.
func TestRangeCountersPinned(t *testing.T) {
	ds, variants := succinctVariants(t, gen.HZ(), 25, 33)
	oracle := NewOracle(ds.Graph, ds.Trajectories)
	type rangeQ struct {
		re    roadnet.Rect
		t     int64
		alpha float64
	}
	rng := rand.New(rand.NewSource(36))
	b := ds.Graph.Bounds()
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	tmin, tmax := ds.Trajectories[0].T[0], ds.Trajectories[0].T[0]
	for _, u := range ds.Trajectories {
		tmin, tmax = min(tmin, u.T[0]), max(tmax, u.T[len(u.T)-1])
	}
	var qs []rangeQ
	for len(qs) < 96 {
		fw, fh := 0.05+0.35*rng.Float64(), 0.05+0.35*rng.Float64()
		q := rangeQ{alpha: []float64{0.2, 0.5, 0.8}[rng.Intn(3)]}
		if len(qs)%2 == 0 {
			j := rng.Intn(len(ds.Trajectories))
			T := ds.Trajectories[j].T
			q.t = T[rng.Intn(len(T))]
			loc, err := oracle.Where(j, q.t, 0)
			if err != nil || len(loc) == 0 {
				t.Fatalf("oracle where(%d, %d): %v, %d results", j, q.t, err, len(loc))
			}
			x, y := ds.Graph.Coords(loc[0].Loc)
			q.re = roadnet.Rect{MinX: x - fw*w/2, MinY: y - fh*h/2, MaxX: x + fw*w/2, MaxY: y + fh*h/2}
		} else {
			q.t = tmin + rng.Int63n(tmax-tmin+1)
			x, y := b.MinX+rng.Float64()*(1-fw)*w, b.MinY+rng.Float64()*(1-fh)*h
			q.re = roadnet.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}
		}
		qs = append(qs, q)
	}
	want := make([][]int, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = oracle.Range(q.re, q.t, q.alpha); err != nil {
			t.Fatal(err)
		}
	}

	// rangePin is what one engine reports after the sweep: a digest of
	// the answers and the Lemma-4 and succinct-layer work totals.
	type rangePin struct {
		hits, digest                       int64
		trajsPruned, pathsDecoded          int64
		regionPrunedNoTouch, blocksDecoded int64
	}
	pins := map[string]rangePin{
		"built":   {hits: 50, digest: 7106177571886436536, trajsPruned: 103, pathsDecoded: 138, regionPrunedNoTouch: 1090},
		"sidecar": {hits: 50, digest: 7106177571886436536, trajsPruned: 103, pathsDecoded: 138, regionPrunedNoTouch: 1090, blocksDecoded: 203},
	}
	for _, v := range variants {
		var got rangePin
		var dst []int
		for i, q := range qs {
			var err error
			if dst, err = v.eng.AppendRange(dst[:0], q.re, q.t, q.alpha); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dst, want[i]) {
				t.Fatalf("%s query %d: %v, oracle %v", v.name, i, dst, want[i])
			}
			for _, j := range dst {
				got.hits++
				got.digest = got.digest*31 + int64(i*1000+j+1)
			}
		}
		st, ix := v.eng.Stats(), v.eng.Ix.Stats()
		got.trajsPruned, got.pathsDecoded = st.TrajsPruned, st.PathsDecoded
		got.regionPrunedNoTouch, got.blocksDecoded = ix.RegionPrunedNoTouch, ix.RegionBlocksDecoded
		if got != pins[v.name] {
			t.Errorf("%s: %+v, pinned %+v", v.name, got, pins[v.name])
		}
	}
}

// TestExactProbabilityCountersPinned runs a fixed Range and When query set
// on DK, CD and HZ against a built and a sidecar-decoded engine.  The
// sidecar stores tuple probabilities as exact counts of the archive's
// PDDP quantum, so the two engines must give identical answers and
// identical EngineStats and RegionPrunedNoTouch counters, and the answer
// digest and counter totals must equal the values the float32-storing
// sidecar (version 4) produced on the same set: no Lemma 1/4 plan moved.
func TestExactProbabilityCountersPinned(t *testing.T) {
	type pin struct {
		hits, digest                                   int64
		pathsDecoded, instancesSkipped                 int64
		trajsPruned, trajsAccepted                     int64
		regionPrunedNoTouch, blocksDecoded, forcedTemp int64
	}
	pins := map[string]pin{
		"DK": {hits: 112, digest: -164593756230510881, pathsDecoded: 141, instancesSkipped: 165, trajsPruned: 112, trajsAccepted: 2, regionPrunedNoTouch: 1270, blocksDecoded: 90, forcedTemp: 22},
		"CD": {hits: 82, digest: 2503418982967989124, pathsDecoded: 128, instancesSkipped: 41, trajsPruned: 91, trajsAccepted: 7, regionPrunedNoTouch: 1169, blocksDecoded: 102, forcedTemp: 21},
		"HZ": {hits: 70, digest: -4140555792684360211, pathsDecoded: 141, instancesSkipped: 173, trajsPruned: 118, trajsAccepted: 5, regionPrunedNoTouch: 1156, blocksDecoded: 126, forcedTemp: 24},
	}
	for _, pr := range sweepProfiles {
		t.Run(pr.name, func(t *testing.T) {
			ds, variants := succinctVariants(t, pr.p, 25, pr.seed)
			oracle := NewOracle(ds.Graph, ds.Trajectories)
			rng := rand.New(rand.NewSource(pr.seed + 37))
			b := ds.Graph.Bounds()
			w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
			alphas := []float64{0.05, 0.2, 0.5, 0.8}
			got := make([]pin, len(variants))
			for q := 0; q < 64; q++ {
				j := rng.Intn(len(ds.Trajectories))
				T := ds.Trajectories[j].T
				tq := T[rng.Intn(len(T))]
				alpha := alphas[rng.Intn(len(alphas))]
				fw, fh := 0.05+0.35*rng.Float64(), 0.05+0.35*rng.Float64()
				x, y := b.MinX+rng.Float64()*(1-fw)*w, b.MinY+rng.Float64()*(1-fh)*h
				re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}
				pi, err := oracle.path(j, rng.Intn(len(ds.Trajectories[j].Instances)))
				if err != nil {
					t.Fatal(err)
				}
				loc := ds.Graph.PositionAtRD(pi.Edges[rng.Intn(len(pi.Edges))], rng.Float64())
				var answers []any
				for i, v := range variants {
					r, err := v.eng.Range(re, tq, alpha)
					if err != nil {
						t.Fatal(err)
					}
					wr, err := v.eng.When(j, loc, alpha)
					if err != nil {
						t.Fatal(err)
					}
					answers = append(answers, [2]any{r, wr})
					for _, k := range r {
						got[i].hits++
						got[i].digest = got[i].digest*31 + int64(q*1000+k+1)
					}
					for _, res := range wr {
						got[i].hits++
						got[i].digest = got[i].digest*31 + int64(res.Inst)*7 + res.T + int64(math.Float64bits(res.P)>>20)
					}
				}
				if !reflect.DeepEqual(answers[0], answers[1]) {
					t.Fatalf("query %d: built %v, sidecar %v", q, answers[0], answers[1])
				}
			}
			for i, v := range variants {
				st, ix := v.eng.Stats(), v.eng.Ix.Stats()
				got[i].pathsDecoded, got[i].instancesSkipped = st.PathsDecoded, st.InstancesSkipped
				got[i].trajsPruned, got[i].trajsAccepted = st.TrajsPruned, st.TrajsAccepted
				got[i].regionPrunedNoTouch = ix.RegionPrunedNoTouch
				got[i].blocksDecoded, got[i].forcedTemp = ix.RegionBlocksDecoded, ix.TemporalSectionsForced
			}
			if got[0].blocksDecoded != 0 || got[0].forcedTemp != 0 {
				t.Errorf("built engine decoded %d buckets, %d temporal sections", got[0].blocksDecoded, got[0].forcedTemp)
			}
			seeded := got[1]
			seeded.blocksDecoded, seeded.forcedTemp = 0, 0
			if seeded != got[0] {
				t.Errorf("sidecar %+v, built %+v", got[1], got[0])
			}
			if want := pins[pr.name]; got[1] != want {
				t.Errorf("sidecar %+v, pinned %+v", got[1], want)
			}
		})
	}
}
