package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"utcq/internal/store"
)

// setTailMetrics sets what the traced run takes from an untraced
// closed-loop phase: the tail percentiles, the untraced medians to set
// beside the traced outermost spans, and the clients' retry counters.
func setTailMetrics(res *result, rs *readStats, ws *writeStats, retries int64) {
	for k, name := range opKindNames {
		s := sortedCopy(durs(rs.lat[k], time.Microsecond))
		p99 := tail(s)
		res.set("client."+name+"_p99_us", orZero(p99))
		res.set("trace.untraced_"+name+"_p50_us", orZero(quantile(s, 0.5)))
	}
	res.set("client.ingest_ack_p99_ms", 0)
	if ws != nil {
		p99 := tail(sortedCopy(durs(ws.ack, time.Millisecond)))
		res.set("client.ingest_ack_p99_ms", orZero(p99))
		res.count(ws.batches, ws.failed, ws.firstErr)
	}
	res.set("client.retries", float64(retries))
	res.set("client.giveups", float64(rs.giveups))
	res.count(rs.attempted, rs.failed, rs.firstErr)
}

// traceServed is the traced run of the three HTTP workloads: the read
// ladder on pristine stores, then the workload's own closed loop for a
// while (untraced), then the write ladder, then the layer probes.
func traceServed(rc *runCtx, res *result, sv *served) error {
	c := sv.c
	t := newTracer(rc.workload)
	// The ladder's node holds the whole corpus.  A single-node workload's
	// own node does (and is still as the set-up left it); beside a
	// cluster one is started for the ladder.
	n := sv.node
	if n == nil {
		dir := filepath.Join(rc.dir, "ladder-node")
		if err := saveStore(c, c.trajs, dir); err != nil {
			return err
		}
		var err error
		if n, err = startNode(c, dir); err != nil {
			return err
		}
		defer n.stop()
	}
	eng, err := singleEngine(c, storeShards)
	if err != nil {
		return err
	}
	cl, idle := newClient(n.url, nil)
	defer idle()
	depths := []depth{{"query", eng}, {"store", n.st}, {"server", handlerTarget{n.srv.Handler()}}, {"client", clientTarget{c: cl}}}
	if sv.clu != nil {
		depths = append(depths, depth{"cluster", sv.readers[0].tg})
	}
	if err := t.readLadder(res, newOpStream(c, loadgenMix, streamSeed(rc.seed, ladderStream)), rc.scaled(traceReadOps, 60), depths, n.st); err != nil {
		return err
	}

	// The workload's own loop, untraced.
	stores := []*store.Store{}
	if sv.node != nil {
		stores = append(stores, sv.node.st)
	} else {
		for _, m := range sv.clu.members {
			stores = append(stores, m.st)
		}
	}
	before := countersOf(stores...)
	var rs *readStats
	var ws *writeStats
	if sv.mixed {
		rs, ws = sv.mixLoop(rc.dur(tracedLoopShare), nil)
	} else {
		rs = sv.readClients(nil, rc.dur(tracedLoopShare))
	}
	retries := sv.wRetry
	for _, r := range sv.readers {
		retries += r.retries
	}
	setTailMetrics(res, rs, ws, retries)
	setCacheHitRatio(res, countersOf(stores...).since(before))

	env := writeEnv{c: c, dir: rc.dir, nodeDir: filepath.Join(rc.dir, "w-node")}
	if err := saveStore(c, c.trajs, env.nodeDir); err != nil {
		return err
	}
	res.zero("cluster.sync_ms", "cluster.holes", "cluster.members_unhealthy")
	if sv.clu != nil {
		env.router = sv.writer
	}
	if err := t.runWriteLadder(rc, res, env); err != nil {
		return err
	}
	if sv.clu != nil {
		st, err := sv.writer.Stats(context.Background())
		if err != nil {
			return err
		}
		holes, unhealthy := clusterHealth(st.Cluster)
		res.set("cluster.sync_ms", float64(sv.clu.syncDur)/float64(time.Millisecond))
		res.set("cluster.holes", float64(holes))
		res.set("cluster.members_unhealthy", float64(unhealthy))
		var herr error
		if holes+unhealthy > 0 {
			herr = fmt.Errorf("cluster ends with %d holes and %d unhealthy members", holes, unhealthy)
		}
		res.check(herr)
	}
	res.spans = t.spans
	return layerProbes(rc, res, c)
}

// traceEmbedded is the traced run of embedded-range: the ladder has the
// engine and the store and nothing above them.
func traceEmbedded(rc *runCtx, res *result, e *embedded) error {
	c := e.c
	t := newTracer(rc.workload)
	eng, err := singleEngine(c, storeShards)
	if err != nil {
		return err
	}
	before := countersOf(e.st)
	rs := readClients(len(e.streams), func(i int) (target, *opStream) { return e.st, e.streams[i] }, nil, rc.dur(tracedLoopShare))
	setTailMetrics(res, rs, nil, 0)
	setCacheHitRatio(res, countersOf(e.st).since(before))
	if err := t.readLadder(res, newOpStream(c, embeddedMix, streamSeed(rc.seed, ladderStream)), rc.scaled(traceReadOps, 60), []depth{{"query", eng}, {"store", e.st}}, e.st); err != nil {
		return err
	}
	res.zero("cluster.sync_ms", "cluster.holes", "cluster.members_unhealthy")
	if err := t.runWriteLadder(rc, res, writeEnv{c: c, dir: rc.dir}); err != nil {
		return err
	}
	res.spans = t.spans
	return layerProbes(rc, res, c)
}

// traceBulk is the traced run of bulk-archive: engine-level queries with
// the cache off on each profile's archive, and the offline write
// components.
func traceBulk(rc *runCtx, res *result, b *bulk) error {
	t := newTracer(rc.workload)
	var all readStats
	for pi, c := range b.corpora {
		eng, err := singleEngine(c, 1)
		if err != nil {
			return err
		}
		eng.DisableCache = true
		sub := newResult()
		pt := newTracer(rc.workload)
		pt.epoch = t.epoch
		if err := pt.readLadder(sub, newOpStream(c, loadgenMix, streamSeed(rc.seed, ladderStream)), rc.scaled(traceReadOps, 60)/len(b.corpora), []depth{{"query", eng}}, nil); err != nil {
			return err
		}
		for i := range pt.spans {
			pt.spans[i].Op += pi * traceReadOps
		}
		t.spans = append(t.spans, pt.spans...)
		// The three profiles' values are averaged: a per-layer number of
		// this workload is about the library, not about one dataset.
		for name, v := range sub.values {
			res.values[name] += v / float64(len(b.corpora))
		}
		rs := readClients(1, func(int) (target, *opStream) {
			return eng, newOpStream(c, loadgenMix, streamSeed(rc.seed, 1))
		}, nil, rc.dur(tracedLoopShare/float64(len(b.corpora))))
		all.merge(rs)
	}
	setTailMetrics(res, &all, nil, 0)
	res.set("query.cache_hit_ratio", 0) // the cache is off: every query pays its own decompression
	res.zero("cluster.sync_ms", "cluster.holes", "cluster.members_unhealthy")
	if err := t.runWriteLadder(rc, res, writeEnv{c: b.corpora[1], offline: true}); err != nil {
		return err
	}
	res.spans = t.spans
	return layerProbes(rc, res, b.corpora...)
}
