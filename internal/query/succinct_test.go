package query

import (
	"math/rand"
	"reflect"
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
