package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/query"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// Shares of the timed phase on workloads whose readers and writer do not
// run side by side: reads first, then the write tail.
const (
	readShare  = 0.7
	writeShare = 0.3
)

// streamSeed derives the seed of client i's op stream from the run's.
func streamSeed(seed int64, i int) int64 { return seed*7919 + int64(i) + 1 }

// reader is one client goroutine's end of the wire.
type reader struct {
	tg      target
	s       *opStream
	retries int64
}

// served is a deployment reached over HTTP — one node, or three members
// behind a router — with the clients that drive it.
type served struct {
	c       *corpus
	node    *node
	clu     *clusterDeploy
	url     string
	dirs    []string
	wire    [][]client.RawTrajectory
	readers []*reader
	writer  *client.Client
	wRetry  int64
	idle    []func()
	// mixed: the workload's writer runs beside its reader, not after.
	mixed bool
}

// setupServed generates the CD corpus, saves it (split by placement when
// clustered), serves it, connects the clients and warms them up.
func setupServed(rc *runCtx, rep int, clustered bool, readers int) (*served, error) {
	pool := rc.scaled(writePoolTrajs, 4*ingestBatch) / ingestBatch * ingestBatch
	c, err := buildCorpus(gen.CD(), rc.scaled(nodeCorpusTrajs, 60), rc.seed, pool)
	if err != nil {
		return nil, err
	}
	sv := &served{c: c, wire: wireBatches(c)}
	root := filepath.Join(rc.dir, fmt.Sprintf("setup-%d", rep))
	if clustered {
		if sv.dirs, err = saveMembers(c, root); err != nil {
			return nil, err
		}
		if sv.clu, err = startCluster(c, sv.dirs); err != nil {
			return nil, err
		}
		sv.url = sv.clu.url
	} else {
		sv.dirs = []string{root}
		if err := saveStore(c, c.trajs, root); err != nil {
			return nil, err
		}
		if sv.node, err = startNode(c, root); err != nil {
			return nil, err
		}
		sv.url = sv.node.url
	}
	for i := 0; i < readers; i++ {
		r := &reader{s: newOpStream(c, loadgenMix, streamSeed(rc.seed, i))}
		cl, idle := newClient(sv.url, &r.retries)
		r.tg = clientTarget{c: cl}
		sv.idle = append(sv.idle, idle)
		sv.readers = append(sv.readers, r)
		if err := warmUp(r.tg, r.s, rc.scaled(warmOps, 20)); err != nil {
			_ = sv.close() // the warm-up error is the one to report
			return nil, err
		}
	}
	var idle func()
	sv.writer, idle = newClient(sv.url, &sv.wRetry)
	sv.idle = append(sv.idle, idle)
	return sv, nil
}

func (sv *served) close() error {
	for _, idle := range sv.idle {
		idle()
	}
	var err error
	if sv.clu != nil {
		err = sv.clu.stop()
	}
	if sv.node != nil {
		err = sv.node.stop()
	}
	sv.clu, sv.node = nil, nil
	return err
}

// countIs is the acked ⇒ queryable check: what holds got trajectories
// must hold the corpus plus every acknowledged one.
func countIs(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s holds %d trajectories, want %d (corpus + acknowledged)", what, got, want)
	}
	return nil
}

// closeInto tears a set-up down when its run returns; a failure to do so
// fails a run that had not failed otherwise.
func closeInto(c closer, err *error) {
	if cerr := c.close(); *err == nil {
		*err = cerr
	}
}

// warmUp sends a stream's next n ops untimed.
func warmUp(tg target, s *opStream, n int) error {
	for i := 0; i < n; i++ {
		op := s.next()
		if _, err := do(tg, &op); err != nil {
			return fmt.Errorf("warm-up %s: %w", opKindNames[op.kind], err)
		}
	}
	return nil
}

// oracleCheck replays the first ops of reader 0's stream against the
// uncompressed oracle and counts disagreements as failed ops.
func oracleCheck(rc *runCtx, res *result, c *corpus, tg target, mix readMix) {
	ops := newOpStream(c, mix, streamSeed(rc.seed, 0)).take(rc.scaled(oracleOps, 30))
	checked, failed, err := verifyOracle(c, tg, ops)
	res.count(checked, failed, err)
}

func (sv *served) readClients(acked *atomic.Int64, dur time.Duration) *readStats {
	return readClients(len(sv.readers), func(i int) (target, *opStream) {
		return sv.readers[i].tg, sv.readers[i].s
	}, acked, dur)
}

// runNodeRead: two readers replay the loadgen mix against one node, then
// (readers gone) one writer posts flushed batches to the same node.
func runNodeRead(rc *runCtx) (_ *result, err error) {
	res := newResult()
	sv, err := timedSetups(rc, res, func(rep int) (*served, error) { return setupServed(rc, rep, false, rc.clients) })
	if err != nil {
		return nil, err
	}
	defer closeInto(sv, &err)
	if rc.trace {
		return res, traceServed(rc, res, sv)
	}
	c := sv.c
	oracleCheck(rc, res, c, sv.readers[0].tg, loadgenMix)
	if err := setColdOpen(rc, res, c, sv.dirs...); err != nil {
		return nil, err
	}
	if err := setStoredBytes(res, len(c.trajs), sv.dirs...); err != nil {
		return nil, err
	}
	setReadMetrics(res, sv.readClients(nil, rc.dur(readShare)))
	ws := writeLoop(postIngest(sv.writer, sv.wire), nil, rc.dur(writeShare), nil)
	setWriteMetrics(res, ws)
	st, err := sv.writer.Stats(context.Background())
	if err == nil {
		err = countIs("node", st.Trajectories, len(c.trajs)+len(ws.ack)*ingestBatch)
	}
	res.check(err)
	return res, codecPass(res, c)
}

// runNodeIngest and runClusterMix send the same two streams — one writer,
// one reader, side by side — to one node and to a router.
func runNodeIngest(rc *runCtx) (*result, error) { return runMix(rc, false) }
func runClusterMix(rc *runCtx) (*result, error) { return runMix(rc, true) }

func runMix(rc *runCtx, clustered bool) (_ *result, err error) {
	res := newResult()
	sv, err := timedSetups(rc, res, func(rep int) (*served, error) { return setupServed(rc, rep, clustered, 1) })
	if err != nil {
		return nil, err
	}
	defer closeInto(sv, &err)
	sv.mixed = true
	if rc.trace {
		return res, traceServed(rc, res, sv)
	}
	c := sv.c
	oracleCheck(rc, res, c, sv.readers[0].tg, loadgenMix)
	if err := setColdOpen(rc, res, c, sv.dirs...); err != nil {
		return nil, err
	}

	var storedErr error
	rs, ws := sv.mixLoop(rc.dur(1), func(acked int) {
		storedErr = setStoredBytes(res, len(c.trajs)+acked, sv.dirs...)
	})
	if storedErr != nil {
		return nil, storedErr
	}
	setReadMetrics(res, rs)
	setWriteMetrics(res, ws)
	if err := verifyMix(rc, res, sv, len(ws.ack)*ingestBatch); err != nil {
		return nil, err
	}
	return res, codecPass(res, c)
}

// mixLoop runs the deployment's reader and its writer side by side for
// dur.  atBatch, when not nil, is the writer's (see writeLoop) and is
// told how many trajectories have been acknowledged.
func (sv *served) mixLoop(dur time.Duration, atBatch func(acked int)) (rs *readStats, ws *writeStats) {
	var acked atomic.Int64
	var measure func()
	if atBatch != nil {
		measure = func() { atBatch(int(acked.Load())) }
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rs = sv.readClients(&acked, dur)
	}()
	go func() {
		defer wg.Done()
		ws = writeLoop(postIngest(sv.writer, sv.wire), &acked, dur, measure)
	}()
	wg.Wait()
	return rs, ws
}

// clusterHealth reads a router's stats: the holes in its id space and the
// members that are quarantined, desynced or failing.
func clusterHealth(cs *client.ClusterStats) (holes, unhealthy int) {
	for _, n := range cs.Nodes {
		if n.Quarantined || n.Desynced || n.Error != "" {
			unhealthy++
		}
	}
	return cs.Holes, unhealthy
}

// verifyMix checks a written-to deployment: every acknowledged trajectory
// is counted; it agrees, answer for answer, with a single reference node
// that ingested the same first batches; a cluster ends with no hole and
// no unhealthy member; a node, stopped and reopened from its directory
// and WAL, holds the same count and gives the same answers.
func verifyMix(rc *runCtx, res *result, sv *served, acked int) error {
	c, ctx := sv.c, context.Background()
	want := len(c.trajs) + acked
	st, err := sv.writer.Stats(ctx)
	if err != nil {
		return err
	}
	res.check(countIs("deployment", st.Trajectories, want))
	if cs := st.Cluster; cs != nil {
		var err error
		if holes, unhealthy := clusterHealth(cs); holes+unhealthy > 0 {
			err = fmt.Errorf("cluster ends with %d holes and %d unhealthy members", holes, unhealthy)
		}
		if h, herr := sv.writer.Health(ctx); herr != nil || h.Status != "ok" {
			err = fmt.Errorf("router health %q: %v", h.Status, herr)
		}
		res.check(err)
	}

	refBatches := min(referenceBatches, acked/ingestBatch)
	cutoff := len(c.trajs) + refBatches*ingestBatch
	probes := probeOps(c, streamSeed(rc.seed, 99), rc.scaled(probeQueries, 20), refBatches*ingestBatch)
	got, err := ask(clientTarget{c: sv.writer, strict: true}, probes, cutoff)
	if err != nil {
		res.check(err)
		return nil
	}
	ref, err := referenceStore(c, refBatches)
	if err != nil {
		return fmt.Errorf("reference node: %w", err)
	}
	refAns, err := ask(ref, probes, cutoff)
	if err != nil {
		return fmt.Errorf("reference node: %w", err)
	}
	res.count(len(probes), 0, nil)
	res.check(got.diff(refAns, "deployment vs single reference node"))

	if sv.node == nil {
		return nil
	}
	// Acked ⇒ durable: stop the node, open its directory and WAL again.
	dir := sv.node.dir
	if err := sv.close(); err != nil {
		return fmt.Errorf("stop node: %w", err)
	}
	re, err := store.Open(dir, c.g, store.OpenOptions{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	ing, err := ingest.New(re, c.eix, filepath.Join(dir, walName), ingestOptions(c, nil))
	if err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	_, ferr := ing.Flush()
	if cerr := ing.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr != nil {
		return fmt.Errorf("replay WAL: %w", ferr)
	}
	res.check(countIs("reopened node", re.NumTrajectories(), want))
	again, err := ask(re, probes, cutoff)
	if err != nil {
		res.check(err)
		return nil
	}
	res.check(got.diff(again, "node before stop vs reopened from directory and WAL"))
	return nil
}

// embedded is a store used as a library: opened from disk, queried and
// written to by direct calls.
type embedded struct {
	c       *corpus
	dir     string
	st      *store.Store
	ing     *ingest.Ingester
	streams []*opStream
}

func (e *embedded) close() error { return e.ing.Close() }

func setupEmbedded(rc *runCtx, rep int) (*embedded, error) {
	pool := rc.scaled(writePoolTrajs/2, 4*ingestBatch) / ingestBatch * ingestBatch
	c, err := buildCorpus(gen.HZ(), rc.scaled(embeddedCorpusTrajs, 60), rc.seed, pool)
	if err != nil {
		return nil, err
	}
	e := &embedded{c: c, dir: filepath.Join(rc.dir, fmt.Sprintf("setup-%d", rep))}
	if err := saveStore(c, c.trajs, e.dir); err != nil {
		return nil, err
	}
	if e.st, err = store.Open(e.dir, c.g, store.OpenOptions{}); err != nil {
		return nil, err
	}
	if e.ing, err = ingest.New(e.st, c.eix, filepath.Join(e.dir, walName), ingestOptions(c, nil)); err != nil {
		return nil, err
	}
	for i := 0; i < rc.clients; i++ {
		s := newOpStream(c, embeddedMix, streamSeed(rc.seed, i))
		if err := warmUp(e.st, s, rc.scaled(warmOps, 20)); err != nil {
			_ = e.close()
			return nil, err
		}
		e.streams = append(e.streams, s)
	}
	return e, nil
}

// post submits and folds batch k of the write pool through the ingester.
func (e *embedded) post(k int) error {
	before := e.st.NumTrajectories()
	if _, err := e.ing.SubmitBatch(e.c.batch(k)); err != nil {
		return err
	}
	if _, err := e.ing.Flush(); err != nil {
		return err
	}
	if got := e.st.NumTrajectories() - before; got != ingestBatch {
		return fmt.Errorf("%d of %d trajectories became queryable", got, ingestBatch)
	}
	return nil
}

// runEmbeddedRange: no HTTP anywhere.  Readers call the store directly
// with a range-dominated stream over a corpus larger than the engine
// caches; then one writer folds batches in through the ingester.
func runEmbeddedRange(rc *runCtx) (_ *result, err error) {
	res := newResult()
	e, err := timedSetups(rc, res, func(rep int) (*embedded, error) { return setupEmbedded(rc, rep) })
	if err != nil {
		return nil, err
	}
	defer closeInto(e, &err)
	if rc.trace {
		return res, traceEmbedded(rc, res, e)
	}
	c := e.c
	oracleCheck(rc, res, c, e.st, embeddedMix)
	if err := setColdOpen(rc, res, c, e.dir); err != nil {
		return nil, err
	}
	if err := setStoredBytes(res, len(c.trajs), e.dir); err != nil {
		return nil, err
	}
	rs := readClients(len(e.streams), func(i int) (target, *opStream) { return e.st, e.streams[i] }, nil, rc.dur(readShare))
	setReadMetrics(res, rs)
	setWriteMetrics(res, writeLoop(e.post, nil, rc.dur(writeShare), nil))
	return res, codecPass(res, c)
}

// Per profile and cycle of bulk-archive: queries put to the fresh archive
// and raw batches taken through match → compress → index.
const (
	bulkQueries = 300
	bulkBatches = 4
)

// bulk is the offline set-up: three corpora and nothing running.
type bulk struct{ corpora []*corpus }

func (*bulk) close() error { return nil }

func setupBulk(rc *runCtx) (*bulk, error) {
	b := &bulk{}
	for _, p := range gen.Profiles() {
		c, err := buildCorpus(p, rc.scaled(bulkCorpusTrajs, 40), rc.seed, rc.scaled(16*ingestBatch, 2*ingestBatch)/ingestBatch*ingestBatch)
		if err != nil {
			return nil, err
		}
		b.corpora = append(b.corpora, c)
	}
	return b, nil
}

// runBulkArchive: the library used offline, as the paper evaluates it.
// One cycle takes each profile's corpus through compress → index → query
// the archive (cache off: every query pays its own decompression) →
// shard, save → cold open → decode everything, and a few raw batches
// through match → compress → index; cycles repeat until the time is up.
func runBulkArchive(rc *runCtx) (*result, error) {
	res := newResult()
	b, err := timedSetups(rc, res, func(int) (*bulk, error) { return setupBulk(rc) })
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return res, traceBulk(rc, res, b)
	}
	type perProfile struct {
		compress, decode, cold []time.Duration
		lat                    [numOpKinds][]time.Duration
		ack                    []time.Duration
		bytes                  int64
	}
	prof := make([]perProfile, len(b.corpora))
	var rs readStats
	var ws writeStats
	var queryTime time.Duration
	var stats core.CompStats
	deadline := time.Now().Add(rc.dur(1))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for pi, c := range b.corpora {
			pp := &prof[pi]
			opts := codecOptions(c)
			comp, err := core.NewCompressor(c.g, opts)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			arch, err := comp.Compress(c.trajs)
			if err != nil {
				return nil, err
			}
			pp.compress = append(pp.compress, time.Since(t0))
			ix, err := stiu.Build(arch, stiu.DefaultOptions())
			if err != nil {
				return nil, err
			}
			eng := query.NewEngine(arch, ix)
			eng.DisableCache = true

			s := newOpStream(c, loadgenMix, streamSeed(rc.seed, cycle))
			if cycle == 0 {
				oracleCheck(rc, res, c, eng, loadgenMix)
			}
			q0 := time.Now()
			for i := 0; i < rc.scaled(bulkQueries, 30); i++ {
				op := s.next()
				t0 := time.Now()
				_, err := do(eng, &op)
				d := time.Since(t0)
				rs.attempted++
				if err != nil {
					rs.failed++
					if rs.firstErr == nil {
						rs.firstErr = err
					}
					continue
				}
				pp.lat[op.kind] = append(pp.lat[op.kind], d)
			}
			queryTime += time.Since(q0)

			dir := filepath.Join(rc.dir, "cycle-"+c.profile.Name)
			if err := saveStore(c, c.trajs, dir); err != nil {
				return nil, err
			}
			if cycle == 0 {
				if pp.bytes, err = dirBytes(dir); err != nil {
					return nil, err
				}
				stats.Add(arch.Stats)
			}
			cold, err := coldOpens(c, 1, dir)
			if err != nil {
				return nil, err
			}
			pp.cold = append(pp.cold, cold...)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}

			t0 = time.Now()
			out, err := arch.DecodeAll()
			if err != nil {
				return nil, err
			}
			pp.decode = append(pp.decode, time.Since(t0))
			if cycle == 0 {
				res.check(verifyDecode(c.trajs, out, opts))
			}

			m := mapmatch.New(c.g, c.eix, c.profile.Match)
			w0 := time.Now()
			for k := 0; k < bulkBatches; k++ {
				t0 := time.Now()
				err := bulkBatch(c, m, comp, cycle*bulkBatches+k)
				d := time.Since(t0)
				ws.batches++
				if err != nil {
					ws.failed++
					if ws.firstErr == nil {
						ws.firstErr = err
					}
					continue
				}
				ws.ack = append(ws.ack, d)
				pp.ack = append(pp.ack, d)
			}
			ws.elapsed += time.Since(w0)
		}
	}
	// A latency is the mean over the profiles of each profile's median:
	// the three datasets' latencies lie apart, and the median of their
	// pooled samples would sit wherever the mix puts it.
	for k, name := range opKindNames {
		p50, n := 0.0, 0
		for pi := range prof {
			p50 += medianDur(prof[pi].lat[k], time.Microsecond) / float64(len(prof))
			n += len(prof[pi].lat[k])
		}
		res.setN(name+"_p50_us", p50, n)
	}
	res.setN("query_qps", float64(rs.succeeded())/queryTime.Seconds(), rs.succeeded())
	res.count(rs.attempted, rs.failed, rs.firstErr)
	setWriteMetrics(res, &ws)
	ack := 0.0
	for pi := range prof {
		ack += medianDur(prof[pi].ack, time.Millisecond) / float64(len(prof))
	}
	res.setN("ingest_ack_p50_ms", ack, len(ws.ack))
	var compress, decode, cold float64
	var bytes int64
	n := 0
	for pi, c := range b.corpora {
		compress += medianDur(prof[pi].compress, time.Second)
		decode += medianDur(prof[pi].decode, time.Second)
		cold += medianDur(prof[pi].cold, time.Millisecond)
		bytes += prof[pi].bytes
		n += len(c.trajs)
	}
	cycles := len(prof[0].compress)
	res.setN("compress_trajs_per_s", float64(n)/compress, cycles)
	res.setN("decompress_trajs_per_s", float64(n)/decode, cycles)
	res.setN("cold_open_ms", cold, cycles)
	res.set("compression_ratio", stats.TotalRatio())
	res.set("stored_bytes_per_traj", float64(bytes)/float64(n))
	return res, nil
}

// bulkBatch takes one batch of raw trajectories from GPS fixes to a
// queryable archive without a store or a WAL: match, compress, index.
func bulkBatch(c *corpus, m *mapmatch.Matcher, comp *core.Compressor, k int) error {
	tus := make([]*traj.Uncertain, 0, ingestBatch)
	for i := 0; i < ingestBatch; i++ {
		u, err := m.Match(c.raws[(k*ingestBatch+i)%len(c.raws)])
		if err != nil {
			return err
		}
		tus = append(tus, u)
	}
	arch, err := comp.Compress(tus)
	if err != nil {
		return err
	}
	ix, err := stiu.Build(arch, stiu.DefaultOptions())
	if err != nil {
		return err
	}
	if eng := query.NewEngine(arch, ix); len(eng.Arch.Trajs) != ingestBatch {
		return errors.New("archive of a batch does not hold the batch")
	}
	return nil
}
