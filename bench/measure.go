package main

import (
	"fmt"
	"runtime"
	"time"

	"utcq/internal/core"
	"utcq/internal/store"
	"utcq/internal/traj"
)

// closer is a set-up that can be torn down.
type closer interface{ close() error }

// timedSetups runs a workload's set-up setupReps times and keeps the
// last one; the others are torn down at once.  setup_s is the median of
// the durations: everything before the first timed op — generating the
// inputs (gen + mapmatch), building, saving and opening stores, starting
// listeners, syncing the router, and the warm-up pass.
func timedSetups[E closer](rc *runCtx, res *result, setup func(rep int) (E, error)) (E, error) {
	var env E
	var took []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		e, err := setup(rep)
		if err != nil {
			return env, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		took = append(took, time.Since(t0))
		if rep < setupReps-1 {
			if err := e.close(); err != nil {
				return env, fmt.Errorf("tear down set-up %d: %w", rep+1, err)
			}
			runtime.GC() // release the torn-down stores' mappings
		}
		env = e
	}
	res.setN("setup_s", medianDur(took, time.Second), len(took))
	rc.logf("set-ups took %v", took)
	return env, nil
}

// codecOptions are the profile's compression parameters with one worker:
// the paper's one-trajectory-at-a-time model, and the only setting whose
// throughput does not depend on what else the host's cores are doing.
func codecOptions(c *corpus) core.Options {
	o := core.DefaultOptions(c.profile.Ts)
	o.Parallelism = 1
	return o
}

// codecPass measures the codec on a corpus as the library exposes it:
// Compress and DecodeAll, codecPasses times each, the median of each
// (a collection that lands inside a pass is what a few passes cannot
// average out); and checks once that what was decoded is what was
// compressed.  It sets
// compress_trajs_per_s, decompress_trajs_per_s and compression_ratio.
func codecPass(res *result, corpora ...*corpus) error {
	const passes = codecPasses
	var compress, decode float64 // summed medians, seconds
	runtime.GC()
	var stats core.CompStats
	n := 0
	for _, c := range corpora {
		opts := codecOptions(c)
		comp, err := core.NewCompressor(c.g, opts)
		if err != nil {
			return err
		}
		var ct, dt []time.Duration
		var arch *core.Archive
		var out []*traj.Uncertain
		for i := 0; i < passes; i++ {
			t0 := time.Now()
			if arch, err = comp.Compress(c.trajs); err != nil {
				return fmt.Errorf("compress %s: %w", c.profile.Name, err)
			}
			ct = append(ct, time.Since(t0))
			t0 = time.Now()
			if out, err = arch.DecodeAll(); err != nil {
				return fmt.Errorf("decode %s: %w", c.profile.Name, err)
			}
			dt = append(dt, time.Since(t0))
		}
		res.check(verifyDecode(c.trajs, out, opts))
		compress += medianDur(ct, time.Second)
		decode += medianDur(dt, time.Second)
		stats.Add(arch.Stats)
		n += len(c.trajs)
	}
	res.setN("compress_trajs_per_s", float64(n)/compress, passes)
	res.setN("decompress_trajs_per_s", float64(n)/decode, passes)
	res.set("compression_ratio", stats.TotalRatio())
	return nil
}

// coldOpens times store.Open on each directory plus one range query over
// the whole network, which touches every shard — from "process starts" to
// "every shard has answered" — once per cycle.  Only the process is cold;
// the page cache is not (README.md, caveats).
func coldOpens(c *corpus, cycles int, dirs ...string) ([]time.Duration, error) {
	took := make([]time.Duration, cycles)
	mid := (c.tmin + c.tmax) / 2
	for i := range took {
		t0 := time.Now()
		for _, dir := range dirs {
			st, err := store.Open(dir, c.g, store.OpenOptions{})
			if err != nil {
				return nil, fmt.Errorf("cold open %s: %w", dir, err)
			}
			if _, err := st.Range(c.bounds, mid, 0.5); err != nil {
				return nil, fmt.Errorf("first range after cold open: %w", err)
			}
			if open := st.OpenShards(); open != st.NumShards() {
				return nil, fmt.Errorf("first range touched %d of %d shards", open, st.NumShards())
			}
		}
		took[i] = time.Since(t0)
		runtime.GC() // release the mappings before the next cycle
	}
	return took, nil
}

// setColdOpen sets cold_open_ms to the median of cycles cold opens.
func setColdOpen(rc *runCtx, res *result, c *corpus, dirs ...string) error {
	took, err := coldOpens(c, rc.scaled(coldOpenCycles, 3), dirs...)
	if err != nil {
		return err
	}
	res.setN("cold_open_ms", medianDur(took, time.Millisecond), len(took))
	return nil
}

// setStoredBytes sets stored_bytes_per_traj from what the directories hold.
func setStoredBytes(res *result, trajs int, dirs ...string) error {
	b, err := dirBytes(dirs...)
	if err != nil {
		return err
	}
	res.set("stored_bytes_per_traj", float64(b)/float64(trajs))
	return nil
}

// setReadMetrics sets the three latency medians and query_qps from what
// the readers saw, and counts their ops.
func setReadMetrics(res *result, rs *readStats) {
	for k, name := range opKindNames {
		res.setN(name+"_p50_us", medianDur(rs.lat[k], time.Microsecond), len(rs.lat[k]))
	}
	res.setN("query_qps", float64(rs.succeeded())/rs.elapsed.Seconds(), rs.succeeded())
	res.count(rs.attempted, rs.failed, rs.firstErr)
}

// setWriteMetrics sets the two ingest metrics from what the writer saw.
func setWriteMetrics(res *result, ws *writeStats) {
	res.setN("ingest_trajs_per_s", ws.trajsPerSec(), len(ws.ack))
	res.setN("ingest_ack_p50_ms", medianDur(ws.ack, time.Millisecond), len(ws.ack))
	res.count(ws.batches, ws.failed, ws.firstErr)
}
