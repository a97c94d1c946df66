// Package store implements a sharded multi-archive trajectory store: the
// process-level container that turns the single-archive UTCQ library
// (compressor of Section 4, StIU index of Section 5.2, query engine of
// Section 5.3) into a servable system.
//
// A store partitions the trajectories of one road network across shards.
// Each shard is an independent compressed archive with its own StIU index
// and query.Engine, so shards build in parallel, open lazily from disk,
// and serve queries concurrently.  Because UTCQ compresses each uncertain
// trajectory independently (references are selected among the instances of
// one trajectory, never across trajectories), a trajectory's compressed
// record is byte-identical no matter which shard holds it, and a sharded
// store answers every query exactly like a single-archive engine over the
// same data — TestStoreMatchesEngine pins this equivalence on all three
// paper profiles.
//
// The store is mutable: ApplyDelta appends an ingested batch as a new
// delta shard and Compact folds accumulated delta shards into one base
// shard (see internal/ingest for the WAL-backed pipeline in front of
// these).  Mutations build a new immutable view — manifest, shard
// catalogue, id maps — and swap it in atomically, so concurrent queries
// always observe a complete generation, never a torn store.  On disk the
// same property holds: shard files and the manifest are written to
// temporary names and renamed into place, manifest last.
//
// Single-trajectory queries (Where, When) route to the owning shard;
// Range scatters to all live shards and gathers the per-shard accepted
// sets into one deterministic, globally-ordered result.
//
// On disk a store is a directory: a manifest (shard catalogue with
// generation number and tombstones, global→shard assignment, index
// granularity, time span; see docs/FORMAT.md) plus one archive file per
// shard in the standard container format of internal/core.
package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"utcq/internal/core"
	"utcq/internal/faultfs"
	"utcq/internal/mmapio"
	"utcq/internal/par"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/traj"
)

// Assignment selects how trajectories map to shards.
type Assignment uint8

const (
	// AssignHash spreads trajectories uniformly by a 64-bit mix of the
	// global trajectory id.  Best load balance; every Range query touches
	// every shard.
	AssignHash Assignment = iota
	// AssignSpatial groups trajectories by the grid cell of their first
	// instance's start vertex, giving contiguous row-major cell blocks to
	// each shard.  Range queries over small rectangles touch fewer shards
	// at the cost of balance.
	AssignSpatial
)

func (a Assignment) String() string {
	switch a {
	case AssignHash:
		return "hash"
	case AssignSpatial:
		return "spatial"
	default:
		return fmt.Sprintf("assignment(%d)", uint8(a))
	}
}

// ParseAssignment converts a flag value ("hash" or "spatial").
func ParseAssignment(s string) (Assignment, error) {
	switch s {
	case "hash":
		return AssignHash, nil
	case "spatial":
		return AssignSpatial, nil
	}
	return 0, fmt.Errorf("store: unknown assignment %q (want hash or spatial)", s)
}

// Options configure a store build.
type Options struct {
	// NumShards is the number of independent base archives the initial
	// build partitions into (values below 1 select 1; the count is
	// additionally capped by the trajectory count).
	NumShards int
	// Assignment maps the initial trajectories to shards (default
	// AssignHash).  Ingested batches always form their own delta shard.
	Assignment Assignment
	// Core are the per-shard compression parameters.
	Core core.Options
	// Index is the per-shard StIU granularity.
	Index stiu.Options
	// Parallelism bounds the shard-build worker pool (<1: one worker per
	// CPU).  Shard contents are independent, so the store is identical
	// across all settings.
	Parallelism int
	// FS is the filesystem all persistence goes through (nil: the real
	// filesystem).  Fault-injection tests substitute faultfs.MemFS or an
	// Injector here.
	FS faultfs.FS
}

// DefaultOptions returns a 4-shard hash-assigned store with the paper's
// default compression and index parameters for sample interval ts.
func DefaultOptions(ts int64) Options {
	return Options{
		NumShards:  4,
		Assignment: AssignHash,
		Core:       core.DefaultOptions(ts),
		Index:      stiu.DefaultOptions(),
	}
}

// shard is one independently compressed + indexed partition.  eng is nil
// until the shard is opened (lazily, for stores opened from disk); it is
// an atomic pointer so residency probes (Stats, OpenShards) never block
// behind an in-flight multi-second open.  A shard's identity and
// membership never change after construction: mutations replace shards
// (tombstoning the old ones), they do not edit them, so any number of
// views can share one shard.
type shard struct {
	id      uint32
	mu      sync.Mutex    // guards opening and the quarantine transitions
	opening chan struct{} // closes when the in-flight lazy open ends; nil when none runs
	eng     atomic.Pointer[query.Engine]
	globals []int32 // local trajectory index -> global id (ascending)

	// Quarantine state after a failed open.  A shard whose open fails
	// (I/O error, corruption) is not retried on every query — that would
	// hammer a broken disk from the hot path — but after a backoff that
	// doubles per consecutive failure.  Until the deadline passes, engine()
	// fails fast with ErrShardQuarantined without touching the disk.
	// Shard objects are shared across views, so quarantine survives
	// concurrent mutations.  All fields are atomics: the fast path reads
	// them without the shard mutex.
	openFails atomic.Int32
	retryAt   atomic.Int64          // unixnano deadline gating the next open attempt; 0 = never failed
	openErr   atomic.Pointer[error] // the last failed open's error
}

// quarantined reports whether the shard is currently failing fast (its
// backoff deadline has not passed).
func (sh *shard) quarantined() bool {
	until := sh.retryAt.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// view is one immutable generation of the store: the manifest plus the
// runtime maps derived from it.  Queries load the current view once and
// work off it; mutations construct a new view and swap the pointer.
type view struct {
	man    *manifest
	shards []*shard // parallel to man.entries; nil for tombstoned entries

	// localIdx[j] is trajectory j's index within its shard.
	localIdx []int32

	// slotByID maps a shard id to its man.entries slot (-1 when dead or
	// unknown).
	slotByID []int32
}

// newView derives the runtime maps from a manifest and its shard slots.
// Each live shard's globals must already hold exactly the globals the
// manifest assigns to it, in ascending order; localIdx is recomputed here
// so it is always consistent with the manifest.
func newView(man *manifest, shards []*shard) *view {
	v := &view{man: man, shards: shards}
	v.slotByID = make([]int32, man.nextID)
	for i := range v.slotByID {
		v.slotByID[i] = -1
	}
	for slot, e := range man.entries {
		if !e.dead {
			v.slotByID[e.id] = int32(slot)
		}
	}
	v.localIdx = make([]int32, len(man.shardOf))
	next := make([]int32, len(man.entries))
	for j, id := range man.shardOf {
		slot := v.slotByID[id]
		v.localIdx[j] = next[slot]
		next[slot]++
	}
	return v
}

// buildShards allocates one empty shard slot per live entry and fills the
// global id lists from the assignment vector (used by Build and Open; the
// engines attach later).
func buildShards(man *manifest) []*shard {
	shards := make([]*shard, len(man.entries))
	slotByID := make([]int32, man.nextID)
	for i := range slotByID {
		slotByID[i] = -1
	}
	for slot, e := range man.entries {
		if !e.dead {
			shards[slot] = &shard{id: e.id}
			slotByID[e.id] = int32(slot)
		}
	}
	for j, id := range man.shardOf {
		sh := shards[slotByID[id]]
		sh.globals = append(sh.globals, int32(j))
	}
	return shards
}

// Store is a sharded collection of compressed uncertain trajectories over
// one road network.  It is safe for concurrent use, including queries
// running while ApplyDelta and Compact mutate it.
type Store struct {
	graph *roadnet.Graph
	opts  Options

	// fs is the filesystem persistence goes through (nil: the real one).
	fs faultfs.FS

	// mu serializes mutations (ApplyDelta, Compact, Save); queries never
	// take it — they read v.
	mu sync.Mutex
	v  atomic.Pointer[view]

	// retained holds the previous generation's view (retention 1, matching
	// deferred tombstone GC) for generation-pinned reads; sig is the
	// current generation's change signal watch subscriptions block on.
	// Both are maintained by swap (snapshot.go).
	retained atomic.Pointer[[]*view]
	sig      atomic.Pointer[genSignal]

	// dir is the backing directory ("" for a purely in-memory store).
	// Mutations on a backed store persist the new shard and manifest
	// before the in-memory swap.  Atomic because lazy shard opens read it
	// on the query path while Save may bind it concurrently.
	dir atomic.Pointer[string]

	// mutation counters (monotonic, survive only the process).
	deltasApplied  atomic.Int64
	compactionsRun atomic.Int64

	// sidecar accounting: opens served from a persisted StIU sidecar vs.
	// index rebuilds from the archive (missing/stale sidecar).
	sidecarLoads    atomic.Int64
	sidecarRebuilds atomic.Int64

	// shardOpenFailures counts failed shard opens (each one quarantines
	// the shard for a backoff interval).
	shardOpenFailures atomic.Int64

	// gatherPool recycles the per-slot result buffers of Range's
	// scatter-gather across queries.
	gatherPool sync.Pool
}

// Build compresses and indexes the trajectories into a sharded in-memory
// store.  Shards build on a bounded worker pool (Options.Parallelism); the
// result is identical across all parallelism settings.
func Build(g *roadnet.Graph, tus []*traj.Uncertain, opts Options) (*Store, error) {
	if opts.NumShards < 1 {
		opts.NumShards = 1
	}
	if n := len(tus); n > 0 && opts.NumShards > n {
		opts.NumShards = n
	}
	shardOf, err := assign(g, tus, opts)
	if err != nil {
		return nil, err
	}
	man := &manifest{
		assignment: opts.Assignment,
		generation: 1,
		nextID:     uint32(opts.NumShards),
		shardOf:    shardOf,
		gridNX:     opts.Index.GridNX,
		gridNY:     opts.Index.GridNY,
		interval:   opts.Index.IntervalDur,
		graphHash:  g.Fingerprint(),
	}
	man.timeMin, man.timeMax = timeSpan(tus)
	man.entries = make([]shardEntry, opts.NumShards)
	counts := make([]uint32, opts.NumShards)
	for _, id := range shardOf {
		counts[id]++
	}
	for i := range man.entries {
		man.entries[i] = shardEntry{id: uint32(i), kind: kindBase, count: counts[i]}
	}

	s := &Store{graph: g, opts: opts, fs: opts.FS}
	shards := buildShards(man)

	// Group each shard's trajectories in ascending global order (the order
	// localIdx is assigned in).
	groups := make([][]*traj.Uncertain, opts.NumShards)
	for j, tu := range tus {
		groups[shardOf[j]] = append(groups[shardOf[j]], tu)
	}
	// Avoid nested per-CPU pools: when the shard pool itself fans out,
	// defaulted (<1) inner parallelism runs each shard's compress and
	// index build serially instead of spawning workers² goroutines.
	// Output is identical either way.
	coreOpts, ixOpts := opts.Core, opts.Index
	if opts.NumShards > 1 && par.Workers(opts.Parallelism) > 1 {
		if coreOpts.Parallelism < 1 {
			coreOpts.Parallelism = 1
		}
		if ixOpts.Parallelism < 1 {
			ixOpts.Parallelism = 1
		}
	}
	err = par.Do(par.Workers(opts.Parallelism), opts.NumShards, func(si int) error {
		eng, bounds, err := buildShardEngine(g, groups[si], coreOpts, ixOpts)
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", si, err)
		}
		shards[si].eng.Store(eng)
		man.entries[si].bounds = bounds
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.swap(newView(man, shards))
	return s, nil
}

// buildShardEngine compresses and indexes one shard's trajectory group.
func buildShardEngine(g *roadnet.Graph, tus []*traj.Uncertain, coreOpts core.Options, ixOpts stiu.Options) (*query.Engine, roadnet.Rect, error) {
	c, err := core.NewCompressor(g, coreOpts)
	if err != nil {
		return nil, roadnet.Rect{}, err
	}
	arch, err := c.Compress(tus)
	if err != nil {
		return nil, roadnet.Rect{}, err
	}
	ix, err := stiu.Build(arch, ixOpts)
	if err != nil {
		return nil, roadnet.Rect{}, fmt.Errorf("index: %w", err)
	}
	return query.NewEngine(arch, ix), ix.Bounds(), nil
}

// assign computes the shard of every trajectory.
func assign(g *roadnet.Graph, tus []*traj.Uncertain, opts Options) ([]uint32, error) {
	out := make([]uint32, len(tus))
	switch opts.Assignment {
	case AssignHash:
		for j := range tus {
			out[j] = uint32(mix64(uint64(j)) % uint64(opts.NumShards))
		}
	case AssignSpatial:
		// A coarse uniform grid over the network; contiguous row-major cell
		// blocks map to the same shard so nearby trajectories co-locate.
		side := int(math.Ceil(math.Sqrt(float64(4 * opts.NumShards))))
		grid := roadnet.NewGrid(g, side, side)
		cells := side * side
		for j, tu := range tus {
			if len(tu.Instances) == 0 {
				out[j] = 0
				continue
			}
			v := g.Vertex(tu.Instances[0].SV)
			cell := int(grid.CellOf(v.X, v.Y))
			out[j] = uint32(cell * opts.NumShards / cells)
		}
	default:
		return nil, fmt.Errorf("store: unknown assignment %d", opts.Assignment)
	}
	return out, nil
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// timeSpan returns the min first and max last timestamp over the dataset.
func timeSpan(tus []*traj.Uncertain) (lo, hi int64) {
	first := true
	for _, tu := range tus {
		if len(tu.T) == 0 {
			continue
		}
		t0, tn := tu.T[0], tu.T[len(tu.T)-1]
		if first || t0 < lo {
			lo = t0
		}
		if first || tn > hi {
			hi = tn
		}
		first = false
	}
	return lo, hi
}

// NumShards returns the live shard count (base + delta, tombstones
// excluded).
func (s *Store) NumShards() int { return s.v.Load().man.liveShards() }

// DeltaShards returns the live delta shard count — the compaction debt.
func (s *Store) DeltaShards() int {
	n := 0
	for _, e := range s.v.Load().man.entries {
		if !e.dead && e.kind == kindDelta {
			n++
		}
	}
	return n
}

// Generation returns the current manifest generation (1 for a fresh
// build; +1 per applied delta batch or compaction).
func (s *Store) Generation() uint64 { return s.v.Load().man.generation }

// WALApplied returns the number of WAL records already folded into the
// store (crash recovery resumes after it; see internal/ingest).
func (s *Store) WALApplied() uint64 { return s.v.Load().man.walApplied }

// fsys returns the filesystem the store persists through (never nil).
func (s *Store) fsys() faultfs.FS { return faultfs.Resolve(s.fs) }

// dirPath returns the backing directory ("" for in-memory stores).
func (s *Store) dirPath() string {
	if p := s.dir.Load(); p != nil {
		return *p
	}
	return ""
}

// Durable reports whether the store persists mutations to a directory
// (true after Open or a successful Save).  The ingester only checkpoints
// its WAL against durable stores: an in-memory store is rebuilt from
// scratch on restart, so its WAL must retain the full history.
func (s *Store) Durable() bool { return s.dirPath() != "" }

// NumTrajectories returns the global trajectory count.
func (s *Store) NumTrajectories() int { return len(s.v.Load().man.shardOf) }

// ShardOf returns the id of the shard holding global trajectory j.
func (s *Store) ShardOf(j int) int { return int(s.v.Load().man.shardOf[j]) }

// TimeSpan returns the dataset's [min, max] timestamp range, maintained in
// the manifest across builds and ingested batches (no shard needs to be
// opened).
func (s *Store) TimeSpan() (lo, hi int64) {
	man := s.v.Load().man
	return man.timeMin, man.timeMax
}

// Bounds returns the road network's bounding rectangle.
func (s *Store) Bounds() roadnet.Rect { return s.graph.Bounds() }

// Graph returns the road network the store serves.
func (s *Store) Graph() *roadnet.Graph { return s.graph }

// OpenShards counts the live shards currently resident in memory
// (diagnostics for lazy opening).  Non-blocking: an in-flight open counts
// as absent.
func (s *Store) OpenShards() int {
	n := 0
	for _, sh := range s.v.Load().shards {
		if sh != nil && sh.eng.Load() != nil {
			n++
		}
	}
	return n
}

// ErrShardQuarantined reports a query that routed to a shard whose open
// recently failed: the shard is failing fast until its backoff deadline
// passes, so the store is serving degraded rather than hammering a broken
// file on every request.  Servers map it to 503 (retryable), never 500.
var ErrShardQuarantined = errors.New("store: shard quarantined")

// engine returns the query engine of the shard in the given slot of v,
// opening the shard from disk on first use.  It hands out no shard once
// ctx is done.  One open runs per shard, on its own goroutine; callers
// wait for it or for ctx, whichever ends first, so a query parked behind
// a stuck open still returns at its deadline, and the open it abandoned
// serves the next query.  A failed open quarantines the shard: until an
// exponentially backed-off deadline passes, callers fail fast with
// ErrShardQuarantined instead of retrying the disk.
func (s *Store) engine(ctx context.Context, v *view, slot int) (*query.Engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := v.shards[slot]
	if eng := sh.eng.Load(); eng != nil {
		return eng, nil
	}
	sh.mu.Lock()
	done := sh.opening
	if done == nil && sh.eng.Load() == nil && !sh.quarantined() && s.dirPath() != "" {
		done = make(chan struct{})
		sh.opening = done
		go s.open(sh, &v.man.entries[slot], done)
	}
	sh.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if eng := sh.eng.Load(); eng != nil {
		return eng, nil
	}
	if s.dirPath() == "" {
		return nil, fmt.Errorf("store: shard %d not built", sh.id)
	}
	if done != nil { // the open this query waited for failed
		return nil, fmt.Errorf("store: open shard %d: %w", sh.id, *sh.openErr.Load())
	}
	return nil, fmt.Errorf("%w: shard %d: %v", ErrShardQuarantined, sh.id, *sh.openErr.Load())
}

// open runs the one lazy open of sh, publishes its engine or quarantines
// the shard, and closes done.
func (s *Store) open(sh *shard, e *shardEntry, done chan struct{}) {
	eng, err := s.openShard(sh, e)
	sh.mu.Lock()
	if err != nil {
		s.quarantine(sh, err)
	} else {
		sh.eng.Store(eng) // resident for good: the quarantine fields go unread
	}
	sh.opening = nil
	sh.mu.Unlock()
	close(done)
}

// quarantineBase is the retry delay after a shard's first failed open.
const quarantineBase = time.Second

// quarantine records a failed open on sh and arms its retry deadline:
// quarantineBase doubled per consecutive failure, capped at 60× base.
// Called with sh.mu held.
func (s *Store) quarantine(sh *shard, err error) {
	s.shardOpenFailures.Add(1)
	fails := sh.openFails.Add(1)
	delay := quarantineBase
	for i := int32(1); i < fails && delay < 60*quarantineBase; i++ {
		delay *= 2
	}
	if delay > 60*quarantineBase {
		delay = 60 * quarantineBase
	}
	sh.openErr.Store(&err)
	sh.retryAt.Store(time.Now().Add(delay).UnixNano())
}

// QuarantinedShards returns the number of live shards currently failing
// fast behind a quarantine deadline.
func (s *Store) QuarantinedShards() int {
	n := 0
	for _, sh := range s.v.Load().shards {
		if sh != nil && sh.eng.Load() == nil && sh.quarantined() {
			n++
		}
	}
	return n
}

// ErrUnknownTrajectory reports a query for a trajectory id the store does
// not hold — a caller-input error, as opposed to the I/O and corruption
// errors shard opening can surface.
var ErrUnknownTrajectory = errors.New("store: unknown trajectory")

// locate resolves a global trajectory id to its shard engine and local
// index within the given view.
func (s *Store) locate(ctx context.Context, v *view, j int) (*query.Engine, int, error) {
	if j < 0 || j >= len(v.man.shardOf) {
		return nil, 0, fmt.Errorf("%w: %d outside [0, %d)", ErrUnknownTrajectory, j, len(v.man.shardOf))
	}
	eng, err := s.engine(ctx, v, int(v.slotByID[v.man.shardOf[j]]))
	if err != nil {
		return nil, 0, err
	}
	return eng, int(v.localIdx[j]), nil
}

// Where answers the probabilistic where query (Definition 10) for global
// trajectory j at the current generation: Snapshot.Where without a
// context, for callers that have none (bench's target interface).
func (s *Store) Where(j int, t int64, alpha float64) ([]query.WhereResult, error) {
	return s.Snapshot().Where(context.Background(), j, t, alpha)
}

// When is Snapshot.When (Definition 11) without a context (see Where).
func (s *Store) When(j int, loc roadnet.Position, alpha float64) ([]query.WhenResult, error) {
	return s.Snapshot().When(context.Background(), j, loc, alpha)
}

// Range is Snapshot.Range (Definition 12) at the current generation
// without a context, for bench's target interface and its cold-open
// measurement.
func (s *Store) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	return s.Snapshot().Range(context.Background(), re, t, alpha)
}

// rangeView runs the scatter-gather range query against one view: it
// scatters the query to the live shards whose recorded geometry bounds
// intersect the rectangle (skipped shards are not even opened; the
// pruning applies for alpha > 0 — see the loop body), translates each
// shard's accepted local ids to global ids, and merges them into one
// ascending list — the same set a single-archive engine returns,
// deterministically ordered.  Under spatial assignment small rectangles
// touch few shards; under hash assignment every shard is queried.  sinceID
// restricts the scan to shards with id >= sinceID — the incremental
// re-evaluation path of watch subscriptions (Snapshot.RangeSince): shard
// ids are monotonic, so everything older than a recorded watermark is
// already in the subscriber's hands and need not be consulted again.
// Once ctx is done no further shard is opened or evaluated and the query
// fails with ctx's error.
func (s *Store) rangeView(ctx context.Context, v *view, re roadnet.Rect, t int64, alpha float64, skipQuarantined bool, sinceID uint32) ([]int, int, error) {
	gs := s.getGather(len(v.shards))
	defer s.putGather(gs)
	var skipped atomic.Int32
	err := par.Do(par.Workers(s.opts.Parallelism), len(v.shards), func(slot int) error {
		sh := v.shards[slot]
		if sh == nil {
			return nil // tombstoned entry
		}
		if sh.id < sinceID {
			return nil // predates the subscriber's watermark: already seen
		}
		b := v.man.entries[slot].bounds
		if b.MinX > b.MaxX {
			return nil // empty shard: holds no trajectories at all
		}
		// Geometry pruning is sound only for alpha > 0: at alpha <= 0 the
		// engine accepts every trajectory active at t (zero confirmed mass
		// already reaches the threshold), geometry notwithstanding.
		if alpha > 0 && !re.Intersects(b) {
			return nil // no geometry of this shard can lie inside re
		}
		eng, err := s.engine(ctx, v, slot)
		if err != nil {
			// A failed open quarantines the shard before returning, so
			// checking quarantined() here also degrades the very query
			// that discovered the failure, not just the ones after it.
			if skipQuarantined && ctx.Err() == nil && (errors.Is(err, ErrShardQuarantined) || sh.quarantined()) {
				skipped.Add(1)
				return nil
			}
			return err
		}
		part, err := eng.AppendRange(gs.parts[slot][:0], re, t, alpha)
		gs.parts[slot] = part // keep any grown capacity for reuse
		if err != nil {
			return err
		}
		// Translate local ids to globals in place.
		for i, l := range part {
			part[i] = int(sh.globals[l])
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for slot := range v.shards {
		total += len(gs.parts[slot])
	}
	out := make([]int, 0, total)
	for slot := range v.shards {
		out = append(out, gs.parts[slot]...)
	}
	sort.Ints(out)
	return out, int(skipped.Load()), nil
}

// gatherScratch is Range's reusable scatter-gather buffer set: one result
// slice per shard slot, recycled across queries so the merge allocates
// only the exact-size output.
type gatherScratch struct {
	parts [][]int
}

func (s *Store) getGather(slots int) *gatherScratch {
	gs, ok := s.gatherPool.Get().(*gatherScratch)
	if !ok {
		gs = &gatherScratch{}
	}
	for len(gs.parts) < slots {
		gs.parts = append(gs.parts, nil)
	}
	return gs
}

func (s *Store) putGather(gs *gatherScratch) {
	for i := range gs.parts {
		gs.parts[i] = gs.parts[i][:0]
	}
	s.gatherPool.Put(gs)
}

// coreOptions returns the compression parameters new delta shards are
// encoded with.  A built store knows them from Options; a store opened
// from disk without OpenOptions.Core derives them from the first live
// shard's archive (the container persists them), so ingested records stay
// byte-identical to a from-scratch compression of the whole population.
func (s *Store) coreOptions(v *view) (core.Options, error) {
	if s.opts.Core.Ts > 0 {
		return s.opts.Core, nil
	}
	for slot, sh := range v.shards {
		if sh == nil {
			continue
		}
		eng, err := s.engine(context.Background(), v, slot)
		if err != nil {
			return core.Options{}, err
		}
		opts := eng.Arch.Opts
		opts.Parallelism = s.opts.Parallelism
		s.opts.Core = opts // cache for subsequent batches (under s.mu)
		return opts, nil
	}
	return core.Options{}, errors.New("store: empty store has no compression parameters; set OpenOptions.Core")
}

// ApplyDelta appends one ingested batch as a new delta shard and advances
// the WAL high-water mark, atomically: a backed store persists the shard
// file and then the manifest (write-temp + rename) before the in-memory
// view swap, so neither in-process readers nor a concurrent Open ever see
// a torn store.  An empty batch (every record failed map matching) still
// persists the walApplied advance.  Returns the new manifest generation.
func (s *Store) ApplyDelta(tus []*traj.Uncertain, walApplied uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	if len(tus) > 0 {
		if err := checkIDBudget(cur.man); err != nil {
			return 0, err
		}
	}
	man := cur.man.clone()
	man.generation++
	if walApplied > man.walApplied {
		man.walApplied = walApplied
	}
	shards := append([]*shard(nil), cur.shards...)
	if len(tus) > 0 {
		coreOpts, err := s.coreOptions(cur)
		if err != nil {
			return 0, err
		}
		eng, bounds, err := buildShardEngine(s.graph, tus, coreOpts, s.indexOptions())
		if err != nil {
			return 0, fmt.Errorf("store: delta shard: %w", err)
		}
		id := man.nextID
		man.nextID++
		man.entries = append(man.entries, shardEntry{id: id, kind: kindDelta, count: uint32(len(tus)), bounds: bounds})
		base := len(man.shardOf)
		sh := &shard{id: id}
		for k := range tus {
			man.shardOf = append(man.shardOf, id)
			sh.globals = append(sh.globals, int32(base+k))
		}
		lo, hi := timeSpan(tus)
		if base == 0 {
			man.timeMin, man.timeMax = lo, hi
		} else {
			man.timeMin, man.timeMax = min(man.timeMin, lo), max(man.timeMax, hi)
		}
		sh.eng.Store(eng)
		shards = append(shards, sh)
		if dir := s.dirPath(); dir != "" {
			nbytes, crc, err := writeShardArtifacts(s.fsys(), dir, id, eng.Arch, eng.Ix)
			if err != nil {
				return 0, err
			}
			ent := &man.entries[len(man.entries)-1]
			ent.bytes, ent.sidecarCRC = nbytes, crc
		}
	}
	if dir := s.dirPath(); dir != "" {
		if err := writeManifestFile(s.fsys(), dir, man); err != nil {
			return 0, err
		}
	}
	s.swap(newView(man, shards))
	s.deltasApplied.Add(1)
	return man.generation, nil
}

// Compact folds every live delta shard into one new base shard: the delta
// records are merged in ascending global order (each record is already the
// fixpoint of re-compression — reference selection operates within a
// single uncertain trajectory, so the merged archive is byte-identical to
// compressing the merged population from scratch), the StIU index is
// rebuilt over the merged archive, and the manifest swaps in atomically
// with the old delta entries tombstoned.  Tombstoned shard files stay on
// disk so readers of an older manifest generation keep working; their ids
// are never reused.  Returns the number of delta shards folded (0 when
// there was nothing to compact).
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()

	var slots []int
	for slot, e := range cur.man.entries {
		if !e.dead && e.kind == kindDelta {
			slots = append(slots, slot)
		}
	}
	if len(slots) == 0 {
		return 0, nil
	}
	if err := checkIDBudget(cur.man); err != nil {
		return 0, err
	}

	// Gather (global, record) pairs from every delta shard; opening is
	// lazy, so compaction may fault shards in.
	type rec struct {
		global int32
		tr     *core.TrajRecord
	}
	var recs []rec
	var arch0 *core.Archive
	var stats core.CompStats
	for _, slot := range slots {
		eng, err := s.engine(context.Background(), cur, slot)
		if err != nil {
			return 0, err
		}
		a := eng.Arch
		if arch0 == nil {
			arch0 = a
		}
		stats.Add(a.Stats)
		for i, tr := range a.Trajs {
			recs = append(recs, rec{global: cur.shards[slot].globals[i], tr: tr})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].global < recs[j].global })

	merged := &core.Archive{
		Opts:       arch0.Opts,
		Graph:      s.graph,
		VertexBits: arch0.VertexBits,
		EdgeBits:   arch0.EdgeBits,
		DCodec:     arch0.DCodec,
		PCodec:     arch0.PCodec,
		Trajs:      make([]*core.TrajRecord, len(recs)),
		Stats:      stats,
	}
	for i, r := range recs {
		merged.Trajs[i] = r.tr
	}
	ix, err := stiu.Build(merged, s.indexOptions())
	if err != nil {
		return 0, fmt.Errorf("store: compact index: %w", err)
	}
	eng := query.NewEngine(merged, ix)

	man := cur.man.clone()
	man.generation++
	id := man.nextID
	man.nextID++
	for _, slot := range slots {
		man.entries[slot].dead = true
	}
	man.entries = append(man.entries, shardEntry{id: id, kind: kindBase, count: uint32(len(recs)), bounds: ix.Bounds()})
	sh := &shard{id: id, globals: make([]int32, len(recs))}
	for i, r := range recs {
		man.shardOf[r.global] = id
		sh.globals[i] = r.global
	}
	sh.eng.Store(eng)

	shards := append([]*shard(nil), cur.shards...)
	for _, slot := range slots {
		shards[slot] = nil // release the folded engines with the old views
	}
	shards = append(shards, sh)

	// Deferred tombstone GC: entries tombstoned by an *earlier* compaction
	// are dropped from the catalogue (the manifest would otherwise grow
	// past its reader limit under continuous ingestion) and their files
	// deleted (the directory would otherwise grow without bound).
	// Deleting the files cannot fail an in-flight query holding an old
	// view: a shard is always faulted resident *before* it is tombstoned
	// (Compact loads every shard it folds, and engines are never
	// un-stored from the shard objects views share), so no view ever
	// opens a tombstoned shard from disk.  Only another *process* still
	// serving a pre-GC manifest could miss the file, and it must re-Open
	// — the standard staleness contract for a file-based store.  Entries
	// tombstoned this round stay one cycle as defense in depth.
	var gcIDs []uint32
	keepE := man.entries[:0]
	keepS := shards[:0]
	for i, e := range man.entries {
		deadBefore := i < len(cur.man.entries) && cur.man.entries[i].dead
		if e.dead && deadBefore {
			gcIDs = append(gcIDs, e.id)
			continue // tombstoned by an earlier generation: collect
		}
		keepE = append(keepE, e) // live, or freshly tombstoned this round
		keepS = append(keepS, shards[i])
	}
	man.entries, shards = keepE, keepS

	if dir := s.dirPath(); dir != "" {
		nbytes, crc, err := writeShardArtifacts(s.fsys(), dir, id, merged, ix)
		if err != nil {
			return 0, err
		}
		for i := range man.entries {
			if man.entries[i].id == id {
				man.entries[i].bytes, man.entries[i].sidecarCRC = nbytes, crc
			}
		}
		if err := writeManifestFile(s.fsys(), dir, man); err != nil {
			return 0, err
		}
		for _, gid := range gcIDs {
			// Best-effort: mapped readers of older generations keep their
			// pages (POSIX keeps unlinked mapped files readable).
			_ = s.fsys().Remove(filepath.Join(dir, shardFile(gid)))
			_ = s.fsys().Remove(filepath.Join(dir, sidecarFile(gid)))
		}
	}
	s.swap(newView(man, shards))
	s.compactionsRun.Add(1)
	return len(slots), nil
}

// checkIDBudget refuses a mutation that would allocate a shard id the
// manifest reader rejects (ids are never reused, so they only grow):
// failing the write loudly now beats persisting a manifest the store can
// never reopen.  The budget of 2^24 lifetime mutations is far beyond any
// sane ingest/compaction cadence; hitting it means the operator should
// rebuild the store (which restarts ids at 0).
func checkIDBudget(man *manifest) error {
	if man.nextID >= maxManifestIDs {
		return fmt.Errorf("store: shard id budget exhausted (%d lifetime shards); rebuild the store to reset ids", man.nextID)
	}
	return nil
}

// indexOptions returns the StIU granularity for newly built shards, with
// the manifest as the source of truth so delta shards always match the
// base shards.
func (s *Store) indexOptions() stiu.Options {
	man := s.v.Load().man
	ix := s.opts.Index
	ix.GridNX, ix.GridNY, ix.IntervalDur = man.gridNX, man.gridNY, man.interval
	return ix
}

// Stats aggregates the engine counters of every open shard plus store-level
// shape information.
type Stats struct {
	Shards       int // live shards (base + delta)
	BaseShards   int
	DeltaShards  int
	Tombstones   int
	OpenShards   int
	Trajectories int
	Assignment   string
	Generation   uint64
	WALApplied   uint64
	TimeMin      int64
	TimeMax      int64

	// DeltasApplied / Compactions count the mutations this process
	// performed (not persisted).
	DeltasApplied int64
	Compactions   int64

	// SidecarLoads / SidecarRebuilds count shard opens whose StIU index
	// came from the persisted sidecar vs. was rebuilt from the archive.
	SidecarLoads    int64
	SidecarRebuilds int64

	// QuarantinedShards is the number of live shards currently failing
	// fast after an open failure (see ErrShardQuarantined);
	// ShardOpenFailures counts every failed open this process observed.
	QuarantinedShards int
	ShardOpenFailures int64

	// MappedBytes is the process-wide total of live file mappings (shard
	// archives and sidecars); RSSBytes is the process resident set (0 when
	// the platform cannot report it).  Together they show how much of the
	// mapped data is actually paged in.
	MappedBytes int64
	RSSBytes    int64

	// Engine is the sum of the open shards' engine counters.
	Engine query.EngineStats

	// Succinct is the sum of the open shards' StIU succinct-layer counters
	// and section sizes.
	Succinct stiu.IndexStats
}

// Stats returns a point-in-time aggregate over all open shards.  Shards not
// yet opened contribute nothing (opening them just to count would defeat
// lazy opening).
func (s *Store) Stats() Stats {
	v := s.v.Load()
	st := Stats{
		Trajectories:      len(v.man.shardOf),
		Assignment:        v.man.assignment.String(),
		Generation:        v.man.generation,
		WALApplied:        v.man.walApplied,
		TimeMin:           v.man.timeMin,
		TimeMax:           v.man.timeMax,
		DeltasApplied:     s.deltasApplied.Load(),
		Compactions:       s.compactionsRun.Load(),
		SidecarLoads:      s.sidecarLoads.Load(),
		SidecarRebuilds:   s.sidecarRebuilds.Load(),
		ShardOpenFailures: s.shardOpenFailures.Load(),
		MappedBytes:       mmapio.MappedBytes(),
		RSSBytes:          mmapio.ResidentSetBytes(),
	}
	for slot, e := range v.man.entries {
		if e.dead {
			st.Tombstones++
			continue
		}
		st.Shards++
		if e.kind == kindDelta {
			st.DeltaShards++
		} else {
			st.BaseShards++
		}
		eng := v.shards[slot].eng.Load()
		if eng == nil {
			if v.shards[slot].quarantined() {
				st.QuarantinedShards++
			}
			continue
		}
		st.OpenShards++
		es := eng.Stats()
		st.Engine.PathsDecoded += es.PathsDecoded
		st.Engine.InstancesSkipped += es.InstancesSkipped
		st.Engine.TrajsPruned += es.TrajsPruned
		st.Engine.TrajsAccepted += es.TrajsAccepted
		st.Succinct.Add(eng.Ix.Stats())
	}
	return st
}
