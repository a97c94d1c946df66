package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"utcq/internal/core"
	"utcq/internal/faultfs"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/par"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// countingFS counts what goes to disk: bytes written, file fsyncs and
// directory fsyncs.  It is passed through store.OpenOptions.FS and
// ingest.Options.FS in the traced write ladder only: a store given any FS
// but the real one reads its shards onto the heap instead of mapping
// them, so no read is ever measured on a store opened through it.
type countingFS struct {
	faultfs.FS
	written atomic.Int64
	syncs   atomic.Int64
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (c *countingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Create(name string) (faultfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}
func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

// liveBytes sums the files the store's current manifest references, the
// manifest and the WAL: what is on disk minus tombstoned shards.
func liveBytes(st *store.Store) (int64, error) {
	data, err := st.ReadArtifact(store.ManifestName)
	if err != nil {
		return 0, err
	}
	info, err := store.ParseManifestInfo(data)
	if err != nil {
		return 0, err
	}
	total := int64(len(data))
	for _, name := range append(info.Files, walName) {
		fi, err := os.Stat(filepath.Join(st.Dir(), name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // no WAL beside a store that was never written to
			}
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// writeEnv is what the write ladder runs on; nil/empty fields drop the
// rungs that need them.
type writeEnv struct {
	c       *corpus
	dir     string         // scratch: stores for the component and ingester rungs are saved here
	nodeDir string         // a pristine saved store for the handler and client rungs
	router  *client.Client // the workload's router, for the routed rung
	offline bool           // bulk-archive: no WAL, no store, components only
}

// writeLadder takes the first batches of the write pool through every
// depth of the write path: the components (WAL append and sync, match,
// compress, index, ApplyDelta, Compact), the ingester (SubmitBatch,
// Flush), the node's handler, pkg/client to the node, pkg/client to the
// router.  Every depth folds the same batches into a store of its own
// that starts from the same corpus; the batch count is a multiple of
// CompactEvery so that compactions fall on the same batches at each.
// Each step's durations are kept per batch (in batch order), so that two
// depths can be subtracted batch by batch.
type writeLadder struct {
	t       *tracer
	res     *result
	env     writeEnv
	batches int

	// Components.
	append16, sync, match16, compress, index, apply, compact []time.Duration
	// Ingester.
	submit, flush []time.Duration
	// Node and router.
	handler, node, router []time.Duration
}

// runWriteLadder runs the rungs env allows and sets the write-path
// metrics; the rungs that do not run leave theirs at 0.
func (t *tracer) runWriteLadder(rc *runCtx, res *result, env writeEnv) error {
	wl := &writeLadder{t: t, res: res, env: env,
		batches: rc.scaled(traceWriteBatches, compactEvery) / compactEvery * compactEvery}
	res.zero("store.apply_delta_ms", "store.compact_ms", "store.compactions", "store.delta_shards_max",
		"store.write_amp", "store.fsyncs_per_batch", "ingest.wal_append_us_per_traj", "ingest.wal_sync_us", "ingest.wal_bytes_per_traj",
		"ingest.submit_batch_us", "ingest.flush_ms", "ingest.flush_allocs_per_traj", "ingest.self_us_per_batch",
		"server.ingest_self_us", "client.ingest_self_us", "cluster.ingest_self_ms")
	if err := wl.components(); err != nil || env.offline {
		return err
	}
	if err := wl.ingester(); err != nil || env.nodeDir == "" {
		return err
	}
	return wl.served()
}

// time runs one step of batch k, keeps its duration and records its span.
// parent is dropped when the outer rung it names does not run.
func (wl *writeLadder) time(dst *[]time.Duration, k int, layer, name, parent string, fn func() error) error {
	switch {
	case wl.env.offline,
		parent == "server.ingest" && wl.env.nodeDir == "",
		parent == "cluster.ingest" && wl.env.router == nil:
		parent = ""
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	*dst = append(*dst, d)
	wl.t.add(k, layer, name, parent, t0, d)
	return err
}

// components calls, one by one, what the ingester calls for a batch.
func (wl *writeLadder) components() error {
	c, res := wl.env.c, wl.res
	comp, err := core.NewCompressor(c.g, core.DefaultOptions(c.profile.Ts))
	if err != nil {
		return err
	}
	matcher := mapmatch.New(c.g, c.eix, c.profile.Match)
	var st *store.Store
	var wal *ingest.WAL
	if !wl.env.offline {
		dir := filepath.Join(wl.env.dir, "w-components")
		if err := saveStore(c, c.trajs, dir); err != nil {
			return err
		}
		if st, err = store.Open(dir, c.g, store.OpenOptions{}); err != nil {
			return err
		}
		if wal, _, err = ingest.OpenWAL(filepath.Join(dir, "components.wal")); err != nil {
			return err
		}
		defer wal.Close() // a scratch log: a close error changes no number
	}
	var walBytes int64
	for k := 0; k < wl.batches; k++ {
		raws := c.batch(k)
		if wal != nil {
			size0 := wal.Size()
			if err := wl.time(&wl.append16, k, "ingest", "wal.append", "ingest.submit", func() error {
				for _, raw := range raws {
					if _, err := wal.Append(raw, 0); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if err := wl.time(&wl.sync, k, "ingest", "wal.sync", "ingest.submit", wal.Sync); err != nil {
				return err
			}
			walBytes += wal.Size() - size0
		}
		tus := make([]*traj.Uncertain, len(raws))
		// On the ingester's own worker pool: one worker per CPU.
		if err := wl.time(&wl.match16, k, "mapmatch", "match", "ingest.flush", func() error {
			return par.Do(par.Workers(0), len(raws), func(i int) error {
				u, err := matcher.Match(raws[i])
				tus[i] = u
				return err
			})
		}); err != nil {
			return err
		}
		var arch *core.Archive
		if err := wl.time(&wl.compress, k, "core", "compress", "store.apply", func() error {
			var err error
			arch, err = comp.Compress(tus)
			return err
		}); err != nil {
			return err
		}
		if err := wl.time(&wl.index, k, "stiu", "build", "store.apply", func() error {
			_, err := stiu.Build(arch, stiu.DefaultOptions())
			return err
		}); err != nil {
			return err
		}
		if st == nil {
			continue
		}
		if err := wl.time(&wl.apply, k, "store", "apply", "ingest.flush", func() error {
			_, err := st.ApplyDelta(tus, st.WALApplied()+uint64(len(tus)))
			return err
		}); err != nil {
			return err
		}
		if st.DeltaShards() >= compactEvery {
			if err := wl.time(&wl.compact, k, "store", "compact", "ingest.flush", func() error {
				_, err := st.Compact()
				return err
			}); err != nil {
				return err
			}
		}
	}
	res.set("mapmatch.batch_match_us", medianDur(wl.match16, time.Microsecond))
	res.set("core.batch_compress_us", medianDur(wl.compress, time.Microsecond))
	res.set("stiu.batch_build_us", medianDur(wl.index, time.Microsecond))
	if wal == nil {
		return nil
	}
	res.set("ingest.wal_append_us_per_traj", medianDur(wl.append16, time.Microsecond)/ingestBatch)
	res.set("ingest.wal_sync_us", medianDur(wl.sync, time.Microsecond))
	res.set("ingest.wal_bytes_per_traj", float64(walBytes)/float64(wl.batches*ingestBatch))
	res.set("store.apply_delta_ms", medianDur(wl.apply, time.Millisecond))
	res.set("store.compact_ms", medianDur(wl.compact, time.Millisecond))
	return nil
}

// ingester folds the batches in through SubmitBatch and Flush, on a
// store opened through the counting filesystem.
func (wl *writeLadder) ingester() error {
	c, res := wl.env.c, wl.res
	dir := filepath.Join(wl.env.dir, "w-ingester")
	if err := saveStore(c, c.trajs, dir); err != nil {
		return err
	}
	cfs := &countingFS{FS: faultfs.OS}
	st, err := store.Open(dir, c.g, store.OpenOptions{FS: cfs})
	if err != nil {
		return err
	}
	ing, err := ingest.New(st, c.eix, filepath.Join(dir, walName), ingestOptions(c, cfs))
	if err != nil {
		return err
	}
	defer ing.Close() // every batch was flushed; a close error changes no number
	live0, err := liveBytes(st)
	if err != nil {
		return err
	}
	var flushAllocs uint64
	deltaMax := 0
	for k := 0; k < wl.batches; k++ {
		raws := c.batch(k)
		if err := wl.time(&wl.submit, k, "ingest", "submit", "server.ingest", func() error {
			_, err := ing.SubmitBatch(raws)
			return err
		}); err != nil {
			return err
		}
		m0 := mallocs()
		if err := wl.time(&wl.flush, k, "ingest", "flush", "server.ingest", func() error {
			_, err := ing.Flush()
			return err
		}); err != nil {
			return err
		}
		flushAllocs += mallocs() - m0
		deltaMax = max(deltaMax, st.DeltaShards())
	}
	live1, err := liveBytes(st)
	if err != nil {
		return err
	}
	res.set("store.compactions", float64(ing.Stats().Compactions))
	res.set("store.delta_shards_max", float64(deltaMax))
	res.set("store.write_amp", float64(cfs.written.Load())/float64(live1-live0))
	res.set("store.fsyncs_per_batch", float64(cfs.syncs.Load())/float64(wl.batches))
	res.set("ingest.submit_batch_us", medianDur(wl.submit, time.Microsecond))
	res.set("ingest.flush_ms", medianDur(wl.flush, time.Millisecond))
	res.set("ingest.flush_allocs_per_traj", float64(flushAllocs)/float64(wl.batches*ingestBatch))
	// Flush minus its children: what the ingester itself adds to
	// matching, applying and (on the batches that trigger it) compacting.
	self := make([]float64, wl.batches)
	compactions := 0
	for k := range self {
		children := wl.match16[k] + wl.apply[k]
		if (k+1)%compactEvery == 0 && compactions < len(wl.compact) {
			children += wl.compact[compactions]
			compactions++
		}
		self[k] = float64(wl.flush[k]-children) / float64(time.Microsecond)
	}
	res.set("ingest.self_us_per_batch", median(self))
	return nil
}

// served posts the batches to a node — to its handler with a pre-encoded
// body, then through pkg/client over loopback — and to the workload's
// router.  One node serves both of its rungs: it is in the same
// compaction phase when the second starts as when the first did.
func (wl *writeLadder) served() error {
	c, res := wl.env.c, wl.res
	n, err := startNode(c, wl.env.nodeDir)
	if err != nil {
		return err
	}
	defer n.stop() // a scratch node: a stop error changes no number
	wire := wireBatches(c)
	ht := handlerTarget{n.srv.Handler()}
	for k := 0; k < wl.batches; k++ {
		body, err := json.Marshal(client.IngestRequest{Trajectories: wire[k%len(wire)], Flush: true})
		if err != nil {
			return err
		}
		if err := wl.time(&wl.handler, k, "server", "ingest", "client.ingest", func() error {
			var resp client.IngestResponse
			if err := ht.postBody("/v1/ingest", body, &resp); err != nil {
				return err
			}
			return checkAck(resp)
		}); err != nil {
			return err
		}
	}
	cl, idle := newClient(n.url, nil)
	defer idle()
	post := postIngest(cl, wire)
	for k := 0; k < wl.batches; k++ {
		if err := wl.time(&wl.node, k, "client", "ingest", "cluster.ingest", func() error { return post(k) }); err != nil {
			return err
		}
	}
	res.set("server.ingest_self_us", median(pairedDiff(wl.handler, sumDurs(wl.submit, wl.flush), time.Microsecond)))
	res.set("client.ingest_self_us", median(pairedDiff(wl.node, wl.handler, time.Microsecond)))
	if wl.env.router == nil {
		return nil
	}
	post = postIngest(wl.env.router, wire)
	for k := 0; k < wl.batches; k++ {
		if err := wl.time(&wl.router, k, "cluster", "ingest", "", func() error { return post(k) }); err != nil {
			return err
		}
	}
	res.set("cluster.ingest_self_ms", median(pairedDiff(wl.router, wl.node, time.Millisecond)))
	return nil
}

func sumDurs(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// pairedDiff returns outer[i]-inner[i] in the given unit.
func pairedDiff(outer, inner []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(outer))
	for i := range outer {
		out[i] = float64(outer[i]-inner[i]) / float64(unit)
	}
	return out
}
