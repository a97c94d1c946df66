package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"utcq/internal/core"
	"utcq/internal/faultfs"
	"utcq/internal/mapmatch"
	"utcq/internal/par"
	"utcq/internal/roadnet"
	"utcq/internal/simplify"
	"utcq/internal/store"
	"utcq/internal/traj"
)

// Options configure an Ingester.
type Options struct {
	// BatchSize is the maximum number of WAL records drained into one
	// delta shard (default 32).  Smaller batches lower ingest latency;
	// larger ones amortize the per-shard index build.
	BatchSize int

	// FlushEvery is the background worker's drain interval for partial
	// batches (default 1s).  Full batches drain immediately.
	FlushEvery time.Duration

	// Match configures the probabilistic map matcher.  The zero value
	// selects mapmatch.DefaultConfig.
	Match mapmatch.Config

	// Parallelism bounds the map-matching worker pool of one batch
	// (<1: one worker per CPU).
	Parallelism int

	// CompactEvery triggers a compaction whenever the live delta shard
	// count reaches it (default 8; negative disables automatic
	// compaction).
	CompactEvery int

	// SimplifyEps is the SED error budget (map units) of the online
	// simplifier applied to every submission at admission — after
	// validation, before the WAL append — so the log, the matcher and the
	// store all see the reduced point set.  0 (the default) disables
	// simplification; the budget in force is recorded per record in the
	// WAL (version 2 payloads) and reported in Stats.
	SimplifyEps float64

	// NoSync skips the fsync on Submit.  Throughput for durability: an
	// unsynced record can be lost in a crash even though Submit returned.
	// Bulk loads and tests use it; live traffic should not.
	NoSync bool

	// FS is the filesystem the WAL lives on (nil: the real one).
	// Fault-injection tests substitute faultfs.MemFS or an Injector; it
	// should match the store's FS so crash simulations cover both.
	FS faultfs.FS
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.BatchSize < 1 {
		o.BatchSize = 32
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = time.Second
	}
	if o.Match.MaxInstances == 0 && o.Match.CandidateRadius == 0 {
		o.Match = mapmatch.DefaultConfig()
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 8
	}
	return o
}

// Stats is a point-in-time snapshot of the ingestion pipeline.
type Stats struct {
	// Acked is the number of trajectories durably accepted into the WAL
	// (including records recovered at startup).
	Acked uint64
	// Applied is the WAL high-water mark folded into the store.
	Applied uint64
	// Pending is Acked - Applied: acknowledged records not yet queryable.
	Pending uint64
	// Matched / Dropped split the applied records into those that
	// produced an uncertain trajectory and those the matcher rejected.
	Matched int64
	Dropped int64
	// Batches counts the delta batches applied by this process.
	Batches int64
	// Compactions counts the automatic compactions this ingester ran.
	Compactions int64
	// Generation mirrors the store's manifest generation.
	Generation uint64
	// WALBytes is the log's current size.
	WALBytes int64
	// SimplifyEps is the configured admission error budget (0: off).
	SimplifyEps float64
	// PointsIn / PointsKept count the raw points submitted to this
	// process and the points surviving admission simplification; their
	// difference is the volume the ε budget saved before the WAL.
	PointsIn   int64
	PointsKept int64
	// ReadOnly reports that the WAL failure latch is set: the write path
	// refuses new submissions (ErrReadOnly) while queries keep serving.
	ReadOnly bool
}

// Ingester is the write path of a mutable store: Submit acknowledges raw
// trajectories into the WAL; a background worker (or explicit Flush calls)
// drains them through map matching and compression into delta shards, and
// compacts deltas into base shards past a threshold.  Safe for concurrent
// use.
type Ingester struct {
	st      *store.Store
	matcher *mapmatch.Matcher
	opts    Options

	// mu guards the WAL and the pending queue.
	mu          sync.Mutex
	wal         *WAL
	pending     []traj.RawTrajectory
	pendingBase uint64 // WAL sequence of pending[0]

	// drainMu serializes batch application (background worker, Flush and
	// Compact callers), keeping WAL order = store order.
	drainMu sync.Mutex

	matched     atomic.Int64
	dropped     atomic.Int64
	batches     atomic.Int64
	compactions atomic.Int64
	pointsIn    atomic.Int64
	pointsKept  atomic.Int64

	// dropMu guards droppedSeqs: the WAL sequences of the most recent
	// records the matcher rejected at fold time.  A dropped record
	// consumed a WAL sequence but no store id, so callers that map
	// sequences to trajectory ids (the synchronous-flush ingest response,
	// and through it the cluster router's placement maps) need to know
	// exactly which ones vanished.
	dropMu      sync.Mutex
	droppedSeqs []uint64

	stop chan struct{}
	done chan struct{}
	wake chan struct{}
}

// ErrRejected marks structurally invalid submissions (client mistakes, as
// opposed to I/O faults).
var ErrRejected = errors.New("ingest: rejected")

// New opens (or creates) the WAL at walPath and attaches it to the store.
// Records already acknowledged but not yet reflected in the store manifest
// (a crash between Sync and ApplyDelta) are queued for the next drain — the
// crash-recovery path.  The edge index must be built over the store's
// road network.  Call Start for background draining, or drive Flush
// manually.
func New(st *store.Store, ix *roadnet.EdgeIndex, walPath string, opts Options) (*Ingester, error) {
	opts = opts.withDefaults()
	wal, recs, err := OpenWALIn(opts.FS, walPath)
	if err != nil {
		return nil, err
	}
	raws := make([]traj.RawTrajectory, len(recs))
	for i, rec := range recs {
		raws[i] = rec.Raw
	}
	// The log holds records [FirstSeq, Count); the store has applied
	// everything below walApplied.  The pending suffix is their
	// difference; a store outside the log's range means the wrong log
	// (or a checkpoint that outran the manifest, which the checkpoint
	// ordering makes impossible).
	applied := st.WALApplied()
	if applied < wal.FirstSeq() || applied > wal.Count() {
		wal.Close()
		return nil, fmt.Errorf("ingest: store has applied %d WAL records but %s covers [%d, %d): wrong log for this store",
			applied, walPath, wal.FirstSeq(), wal.Count())
	}
	ing := &Ingester{
		st:          st,
		matcher:     mapmatch.New(st.Graph(), ix, opts.Match),
		opts:        opts,
		wal:         wal,
		pending:     raws[applied-wal.FirstSeq():],
		pendingBase: applied,
		wake:        make(chan struct{}, 1),
	}
	return ing, nil
}

// Pending returns the acknowledged-but-unapplied record count.
func (ing *Ingester) Pending() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return len(ing.pending)
}

// ReadOnly returns the latched WAL failure, or nil while the write path
// is healthy.  Once non-nil, Submit fails with an error wrapping
// ErrReadOnly until the process restarts against a repaired log; reads
// are unaffected.
func (ing *Ingester) ReadOnly() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.wal == nil {
		return nil
	}
	return ing.wal.Failed()
}

// ValidateRaw checks the structural requirements a submission must meet
// before it can be acknowledged (wrapped in ErrRejected on failure).
func ValidateRaw(raw traj.RawTrajectory) error {
	if len(raw.Points) < 2 {
		return fmt.Errorf("%w: need >= 2 points, got %d", ErrRejected, len(raw.Points))
	}
	if len(raw.Points) > MaxPoints {
		return fmt.Errorf("%w: %d points exceed the WAL record limit (%d)", ErrRejected, len(raw.Points), MaxPoints)
	}
	for i := 1; i < len(raw.Points); i++ {
		if raw.Points[i].T <= raw.Points[i-1].T {
			return fmt.Errorf("%w: timestamps not strictly increasing at point %d", ErrRejected, i)
		}
	}
	// Any point may become the first mapped one, whose timestamp the
	// archive stores in a bounded field.
	if first, last := raw.Points[0].T, raw.Points[len(raw.Points)-1].T; first < core.MinTimestamp || last > core.MaxTimestamp {
		return fmt.Errorf("%w: timestamps outside [%d, %d]", ErrRejected, int64(core.MinTimestamp), int64(core.MaxTimestamp))
	}
	return nil
}

// Submit validates and acknowledges one raw trajectory: it is appended to
// the WAL and (unless Options.NoSync) fsynced before Submit returns its
// sequence number.  The trajectory becomes queryable after the next drain.
func (ing *Ingester) Submit(raw traj.RawTrajectory) (uint64, error) {
	return ing.SubmitBatch([]traj.RawTrajectory{raw})
}

// SubmitBatch acknowledges a batch with one durability barrier: every
// trajectory is validated before anything is appended — a structurally
// invalid batch is rejected (ErrRejected) with nothing acknowledged — then
// all records are appended and fsynced once (group commit), so a
// 100-trajectory batch costs one fsync, not 100.  Returns the sequence
// number of the first record.
//
// With Options.SimplifyEps > 0 each validated trajectory is reduced by
// the SED-bounded online simplifier before its WAL append: what is
// acknowledged (and later matched, compressed and served) is the
// simplified point set, with the budget recorded alongside it in the log.
// Simplification keeps endpoints and a strictly-ordered subsequence, so
// it cannot invalidate a batch that passed validation.
func (ing *Ingester) SubmitBatch(raws []traj.RawTrajectory) (uint64, error) {
	if len(raws) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrRejected)
	}
	for i, raw := range raws {
		if err := ValidateRaw(raw); err != nil {
			return 0, fmt.Errorf("trajectory %d: %w", i, err)
		}
	}
	eps := ing.opts.SimplifyEps
	var in, kept int
	if eps > 0 {
		reduced := make([]traj.RawTrajectory, len(raws))
		for i, raw := range raws {
			reduced[i] = simplify.Trajectory(raw, eps)
			in += len(raw.Points)
			kept += len(reduced[i].Points)
		}
		raws = reduced
	} else {
		eps = 0 // never record a negative budget
		for _, raw := range raws {
			in += len(raw.Points)
		}
		kept = in
	}
	ing.pointsIn.Add(int64(in))
	ing.pointsKept.Add(int64(kept))
	ing.mu.Lock()
	var first uint64
	var err error
	for i, raw := range raws {
		var seq uint64
		if seq, err = ing.wal.Append(raw, eps); err != nil {
			break
		}
		if i == 0 {
			first = seq
		}
	}
	if err == nil && !ing.opts.NoSync {
		err = ing.wal.Sync()
	}
	if err == nil {
		ing.pending = append(ing.pending, raws...)
	}
	full := len(ing.pending) >= ing.opts.BatchSize
	ing.mu.Unlock()
	if err != nil {
		// Appended-but-unsynced records were never acknowledged; the WAL's
		// failure latch keeps later submissions from misnumbering.
		return 0, err
	}
	if full {
		select {
		case ing.wake <- struct{}{}:
		default:
		}
	}
	return first, nil
}

// Flush drains every pending record into the store, one delta shard per
// batch, and returns the store generation afterwards.
func (ing *Ingester) Flush() (uint64, error) {
	for {
		n, err := ing.drainOne()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return ing.st.Generation(), nil
		}
	}
}

// drainOne applies up to one batch of pending records and reports how many
// it consumed.
func (ing *Ingester) drainOne() (int, error) {
	ing.drainMu.Lock()
	defer ing.drainMu.Unlock()

	ing.mu.Lock()
	if ing.wal != nil && ing.opts.NoSync {
		// Unsynced submissions are not acknowledged; make the batch
		// durable before folding it into the store, or a crash could lose
		// records the manifest claims were applied.
		if err := ing.wal.Sync(); err != nil {
			ing.mu.Unlock()
			return 0, err
		}
	}
	n := len(ing.pending)
	if n > ing.opts.BatchSize {
		n = ing.opts.BatchSize
	}
	batch := append([]traj.RawTrajectory(nil), ing.pending[:n]...)
	applyTo := ing.pendingBase + uint64(n)
	ing.mu.Unlock()
	if n == 0 {
		return 0, nil
	}

	// Map-match the batch on a bounded pool; results stay in submission
	// order so the store content is a pure function of the WAL.
	us := make([]*traj.Uncertain, n)
	_ = par.Do(par.Workers(ing.opts.Parallelism), n, func(i int) error {
		u, err := ing.matcher.Match(batch[i])
		if err == nil {
			us[i] = u
		}
		return nil // match failures drop the record, they do not abort the batch
	})
	var tus []*traj.Uncertain
	var droppedNow []uint64
	for i, u := range us {
		if u != nil {
			tus = append(tus, u)
		} else {
			droppedNow = append(droppedNow, applyTo-uint64(n)+uint64(i))
		}
	}
	if len(droppedNow) > 0 {
		ing.noteDropped(droppedNow)
	}
	if _, err := ing.st.ApplyDelta(tus, applyTo); err != nil {
		return 0, err
	}
	ing.matched.Add(int64(len(tus)))
	ing.dropped.Add(int64(n - len(tus)))
	ing.batches.Add(1)

	ing.mu.Lock()
	ing.pending = ing.pending[n:]
	ing.pendingBase = applyTo
	ing.mu.Unlock()

	if ing.opts.CompactEvery > 0 && ing.st.DeltaShards() >= ing.opts.CompactEvery {
		folded, err := ing.st.Compact()
		if err != nil {
			return 0, err
		}
		if folded > 0 {
			ing.compactions.Add(1)
			ing.checkpointWAL()
		}
	}
	return n, nil
}

// maxDroppedSeqs bounds the retained drop history.  Drops are rare
// (structurally valid GPS that the matcher cannot place on the network),
// and the only caller that needs them — the synchronous-flush ingest
// response — asks immediately after its own batch folded, so a small
// recent window is always enough.
const maxDroppedSeqs = 4096

// noteDropped records fold-time drops (ascending, fold order).
func (ing *Ingester) noteDropped(seqs []uint64) {
	ing.dropMu.Lock()
	ing.droppedSeqs = append(ing.droppedSeqs, seqs...)
	if excess := len(ing.droppedSeqs) - maxDroppedSeqs; excess > 0 {
		ing.droppedSeqs = append(ing.droppedSeqs[:0], ing.droppedSeqs[excess:]...)
	}
	ing.dropMu.Unlock()
}

// DroppedIn returns the WAL sequences in [from, to) whose records were
// acknowledged but rejected by the map matcher at fold time.  Only the
// most recent maxDroppedSeqs drops are retained, so the answer is exact
// for a batch queried right after its own flush and best-effort for
// ancient history.
func (ing *Ingester) DroppedIn(from, to uint64) []uint64 {
	ing.dropMu.Lock()
	defer ing.dropMu.Unlock()
	var out []uint64
	for _, s := range ing.droppedSeqs {
		if s >= from && s < to {
			out = append(out, s)
		}
	}
	return out
}

// checkpointWAL drops the WAL prefix the manifest confirms applied, so
// the log is bounded by the unapplied backlog rather than the lifetime
// ingest volume.  Compaction cadence is the natural trigger: the dropped
// records' data just became part of a durable base shard.  In-memory
// stores are exempt — they rebuild from scratch on restart, so their WAL
// must retain the full history.  Failures are harmless (the log only
// stays longer than necessary) and will be retried at the next
// compaction.
func (ing *Ingester) checkpointWAL() {
	if !ing.st.Durable() {
		return
	}
	ing.mu.Lock()
	// Only checkpoint when every acknowledged record is applied (the
	// common state right after a compaction): the retained suffix is then
	// empty, so the rewrite is O(1) plus one sequential scan, and the
	// mutex never pins concurrent Submits behind a partial-log copy.
	// With submissions racing the compaction, the next compaction gets it.
	if applied := ing.st.WALApplied(); applied == ing.wal.Count() {
		_ = ing.wal.Checkpoint(applied)
	}
	ing.mu.Unlock()
}

// Compact drains pending records and folds all live delta shards into a
// base shard, returning the number folded.
func (ing *Ingester) Compact() (int, error) {
	if _, err := ing.Flush(); err != nil {
		return 0, err
	}
	folded, err := ing.st.Compact()
	if err == nil && folded > 0 {
		ing.compactions.Add(1)
		ing.checkpointWAL()
	}
	return folded, err
}

// Start launches the background drain worker: full batches drain on
// arrival, partial batches at Options.FlushEvery.  Stop with Close.
func (ing *Ingester) Start() {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.stop != nil {
		return
	}
	ing.stop = make(chan struct{})
	ing.done = make(chan struct{})
	go ing.loop(ing.stop, ing.done)
}

func (ing *Ingester) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(ing.opts.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ing.wake:
		case <-tick.C:
		}
		for {
			n, err := ing.drainOne()
			if err != nil || n == 0 {
				break // transient errors retry on the next tick
			}
		}
	}
}

// Close stops the background worker, drains everything pending, and closes
// the WAL.  The store stays queryable.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	stop, done := ing.stop, ing.done
	ing.stop, ing.done = nil, nil
	ing.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	_, ferr := ing.Flush()
	ing.mu.Lock()
	cerr := ing.wal.Close()
	ing.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Stats returns a point-in-time snapshot.
func (ing *Ingester) Stats() Stats {
	ing.mu.Lock()
	acked := ing.wal.Count()
	pending := uint64(len(ing.pending))
	bytes := ing.wal.Size()
	readOnly := ing.wal.Failed() != nil
	ing.mu.Unlock()
	return Stats{
		Acked:       acked,
		Applied:     ing.st.WALApplied(),
		Pending:     pending,
		Matched:     ing.matched.Load(),
		Dropped:     ing.dropped.Load(),
		Batches:     ing.batches.Load(),
		Compactions: ing.compactions.Load(),
		Generation:  ing.st.Generation(),
		WALBytes:    bytes,
		SimplifyEps: math.Max(ing.opts.SimplifyEps, 0),
		PointsIn:    ing.pointsIn.Load(),
		PointsKept:  ing.pointsKept.Load(),
		ReadOnly:    readOnly,
	}
}
