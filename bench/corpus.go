package main

import (
	"fmt"
	"time"

	"utcq/internal/gen"
	"utcq/internal/mapmatch"
	"utcq/internal/traj"
)

// buildCorpus generates a profile's corpus from the seed: n uncertain
// trajectories (gen.Build: synthetic GPS traces, probabilistically map
// matched) and, for writing workloads, a pool of writePool raw
// trajectories that the ingester's matcher accepts.  A raw trajectory the
// matcher drops burns a hole in a cluster's id space but not in a single
// node's, so only matchable ones keep the two deployments comparable and
// every write op successful.
func buildCorpus(p gen.Profile, n int, seed int64, writePool int) (*corpus, error) {
	t0 := time.Now()
	ds, err := gen.Build(p, n, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s corpus: %w", p.Name, err)
	}
	c := &corpus{profile: p, g: ds.Graph, eix: ds.EdgeIndex, trajs: ds.Trajectories, bounds: ds.Graph.Bounds(), genDur: time.Since(t0)}
	c.tmin, c.tmax = c.trajs[0].T[0], c.trajs[0].T[0]
	for _, u := range c.trajs {
		c.tmin = min(c.tmin, u.T[0])
		c.tmax = max(c.tmax, u.T[len(u.T)-1])
	}
	if writePool == 0 {
		return c, nil
	}
	// A different seed: the write pool is new traffic, not the corpus again.
	_, _, raws, err := gen.Raws(p, writePool+writePool/2, seed+1)
	if err != nil {
		return nil, fmt.Errorf("generate %s write pool: %w", p.Name, err)
	}
	m := mapmatch.New(c.g, c.eix, p.Match)
	t0 = time.Now()
	defer func() { c.matchDur = time.Since(t0) }()
	for _, raw := range raws {
		c.rawsTried++
		u, err := m.Match(raw)
		if err != nil {
			continue
		}
		c.raws = append(c.raws, raw)
		c.matched = append(c.matched, u)
		if len(c.raws) == writePool {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%s write pool: only %d of %d raw trajectories are matchable, want %d", p.Name, len(c.raws), len(raws), writePool)
}

// batch returns batch k of the write pool, which writers cycle through.
func (c *corpus) batch(k int) []traj.RawTrajectory {
	raws := make([]traj.RawTrajectory, ingestBatch)
	for i := range raws {
		raws[i] = c.raws[(k*ingestBatch+i)%len(c.raws)]
	}
	return raws
}
