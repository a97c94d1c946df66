package main

import (
	"fmt"
	"runtime"
	"time"

	"utcq/internal/core"
	"utcq/internal/query"
	"utcq/internal/stiu"
	"utcq/internal/store"
)

// ladderStream numbers the op stream the read ladder replays: the
// workload's mix and seed, but a stream no client has sent, so no depth
// starts with its ops cached by the warm-up.
const ladderStream = 50

// Share of -seconds the traced run spends on the untraced closed-loop
// phase that yields the tail percentiles and the untraced p50.
const tracedLoopShare = 0.4

// span is one call into one layer.  Spans of one op share Op; Parent is
// "layer.name" of the next-outer span of the same op, "" for the
// outermost.  The depths of an op are replayed one after the other, not
// nested in one call, so a parent's interval does not contain its
// child's: what pairs them is the op.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, epoch: time.Now()} }

func (t *tracer) add(op int, layer, name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{t.workload, op, layer, name, s, s + d.Nanoseconds(), parent})
}

// depth is one rung of the read ladder.
type depth struct {
	layer string
	tg    target
}

// rung is what one depth measured for one kind of op: the duration of
// every op (in op order) and the heap allocations per op.
type rung struct {
	durs   []time.Duration
	allocs float64
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// counters is the work the store's engines and indexes have done so far.
type counters [numCounters]int64

const (
	cPathsDecoded = iota
	cInstancesSkipped
	cTrajsPruned
	cCacheHits
	cCacheMisses
	cBlocksDecoded
	cPrunedNoTouch
	cTemporalForced
	numCounters
)

// countersOf sums the counters of the stores of a deployment.
func countersOf(stores ...*store.Store) counters {
	var c counters
	for _, st := range stores {
		s := st.Stats()
		for i, v := range [numCounters]int64{s.Engine.PathsDecoded, s.Engine.InstancesSkipped, s.Engine.TrajsPruned, s.Engine.CacheHits, s.Engine.CacheMisses,
			s.Succinct.RegionBlocksDecoded, s.Succinct.RegionPrunedNoTouch, s.Succinct.TemporalSectionsForced} {
			c[i] += v
		}
	}
	return c
}

// setCacheHitRatio sets query.cache_hit_ratio: the share of engine cache
// lookups that hit, over the workload's own untraced loop — a property of
// the workload's working set against the cache budget, which a replay of
// two thousand ops cannot show.
func setCacheHitRatio(res *result, during counters) {
	res.set("query.cache_hit_ratio", share(during[cCacheHits], during[cCacheHits]+during[cCacheMisses]))
}

// since returns the work done after an earlier reading.
func (a counters) since(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// Untimed ops sent at a ladder depth, before its timed ones, for each
// timed one.
const ladderWarmFactor = 3

// readLadder replays the first n ops of a stream serially, in this
// goroutine, at every depth, innermost first.  At each depth the ops are
// grouped by kind.  Before anything is timed at a depth, every trajectory
// of the corpus is asked for once there, so that a corpus that fits the
// caches is resident at every depth alike and the difference between two
// depths is the outer layer's work, not its colder cache; and before a
// group is timed (one span per op) the depth is sent ladderWarmFactor
// times as many later ops of the stream untimed, which none of the timed
// ops repeats.  counted, when not nil, is the store whose Stats()
// deltas around the store depth's timed groups give the work counts.
func (t *tracer) readLadder(res *result, s *opStream, n int, depths []depth, counted *store.Store) error {
	ops := s.take(n)
	warm := s.take(ladderWarmFactor * n)
	lad := make([][numOpKinds]rung, len(depths))
	var work [numOpKinds]counters // deltas over the store depth's groups
	var hits [numOpKinds]int
	for di, d := range depths {
		for j, u := range s.c.trajs {
			if _, err := d.tg.Where(j, timeIn(u, 0.5), 0); err != nil {
				return fmt.Errorf("priming %s: %w", d.layer, err)
			}
		}
		for kind := opKind(0); kind < numOpKinds; kind++ {
			parent := ""
			if di+1 < len(depths) {
				parent = depths[di+1].layer + "." + opKindNames[kind]
			}
			for i := range warm {
				if warm[i].kind != kind {
					continue
				}
				if _, err := do(d.tg, &warm[i]); err != nil {
					return fmt.Errorf("traced %s at %s: %w", opKindNames[kind], d.layer, err)
				}
			}
			var before counters
			if counted != nil && d.layer == "store" {
				before = countersOf(counted)
			}
			m0 := mallocs()
			r := &lad[di][kind]
			for i := range ops {
				op := &ops[i]
				if op.kind != kind {
					continue
				}
				t0 := time.Now()
				h, err := do(d.tg, op)
				dur := time.Since(t0)
				if err != nil {
					return fmt.Errorf("traced %s at %s: %w", opKindNames[kind], d.layer, err)
				}
				r.durs = append(r.durs, dur)
				t.add(i, d.layer, opKindNames[kind], parent, t0, dur)
				if di == 0 {
					hits[kind] += h
				}
			}
			// The span and duration slices grow inside the loop; their
			// amortised appends are well under one allocation per op.
			r.allocs = float64(mallocs()-m0) / float64(max(len(r.durs), 1))
			if counted != nil && d.layer == "store" {
				work[kind] = countersOf(counted).since(before)
			}
		}
	}

	// Self time: a layer's span minus its child's, paired per op, then
	// the median.
	self := func(di int, kind opKind) float64 {
		if di >= len(depths) {
			return 0
		}
		d := durs(lad[di][kind].durs, time.Microsecond)
		if di > 0 {
			inner := lad[di-1][kind].durs
			for i := range d {
				d[i] -= float64(inner[i]) / float64(time.Microsecond)
			}
		}
		return median(d)
	}
	allocsOver := func(di int, kind opKind) float64 {
		if di >= len(depths) {
			return 0
		}
		a := lad[di][kind].allocs
		if di > 0 {
			a -= lad[di-1][kind].allocs
		}
		return a
	}
	at := map[string]int{"query": len(depths), "store": len(depths), "server": len(depths), "client": len(depths), "cluster": len(depths)}
	for di, d := range depths {
		at[d.layer] = di
	}
	for kind, name := range opKindNames {
		k := opKind(kind)
		res.set("query."+name+"_us", self(at["query"], k))
		res.set("query."+name+"_allocs", allocsOver(at["query"], k))
		res.set("store."+name+"_self_us", self(at["store"], k))
		res.set("server."+name+"_self_us", self(at["server"], k))
		res.set("cluster."+name+"_self_us", self(at["cluster"], k))
		res.set("trace."+name+"_outer_us", medianDur(lad[len(depths)-1][k].durs, time.Microsecond))
	}
	res.set("store.where_allocs", allocsOver(at["store"], opWhere))
	res.set("server.where_allocs", allocsOver(at["server"], opWhere))
	res.set("server.range_allocs", allocsOver(at["server"], opRange))
	res.set("client.where_self_us", self(at["client"], opWhere))
	res.set("client.range_self_us", self(at["client"], opRange))
	res.set("client.where_allocs", allocsOver(at["client"], opWhere))

	ranges := float64(max(len(lad[0][opRange].durs), 1))
	var all counters
	for _, w := range work {
		for i := range all {
			all[i] += w[i]
		}
	}
	perRange := func(i int) float64 { return float64(work[opRange][i]) / ranges }
	res.set("query.paths_decoded_per_range", perRange(cPathsDecoded))
	res.set("query.trajs_pruned_per_range", perRange(cTrajsPruned))
	res.set("query.instances_skipped_per_range", perRange(cInstancesSkipped))
	res.set("query.range_hits_avg", float64(hits[opRange])/ranges)
	res.set("stiu.blocks_decoded_per_range", perRange(cBlocksDecoded))
	res.set("stiu.pruned_no_touch_share", share(all[cPrunedNoTouch], all[cPrunedNoTouch]+all[cBlocksDecoded]))
	res.set("stiu.temporal_sections_forced", float64(all[cTemporalForced]))
	return nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// singleEngine builds d0: one archive of the whole corpus, its index, and
// an engine whose cache budget is the sum of the sharded store's.
func singleEngine(c *corpus, shards int) (*query.Engine, error) {
	comp, err := core.NewCompressor(c.g, core.DefaultOptions(c.profile.Ts))
	if err != nil {
		return nil, err
	}
	arch, err := comp.Compress(c.trajs)
	if err != nil {
		return nil, err
	}
	ix, err := stiu.Build(arch, stiu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	o := query.DefaultEngineOptions()
	o.CacheEntries *= shards
	return query.NewEngineWithOptions(arch, ix, o), nil
}
