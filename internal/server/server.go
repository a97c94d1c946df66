// Package server exposes a sharded trajectory store (internal/store) over
// HTTP/JSON: the network query front-end of the UTCQ system.  It serves
// the paper's three probabilistic queries — where (Definition 10), when
// (Definition 11) and range (Definition 12) — as single-query endpoints
// and as one batched endpoint that fans a request's queries across a
// bounded worker pool, plus /healthz for liveness and /v1/stats for the
// store's aggregated engine counters.  With an ingester
// attached (Options.Ingester) the server also accepts live traffic:
// POST /v1/ingest acknowledges raw trajectories into the WAL and
// POST /v1/compact folds accumulated delta shards into a base shard.
//
// The handlers hold no per-request state beyond the decoded bodies; all
// concurrency control lives in the store and its per-shard engines, so one
// Server instance serves any number of connections.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"utcq/internal/ingest"
	"utcq/internal/par"
	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// Options configure a Server.
type Options struct {
	// MaxBatch bounds the queries accepted in one /v1/batch request
	// (default 256).
	MaxBatch int
	// BatchParallelism bounds the workers evaluating one batch
	// (<1: one per CPU).
	BatchParallelism int
	// ReadTimeout/WriteTimeout guard slow clients (defaults 10s/30s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// QueryTimeout bounds the evaluation of one query request (where /
	// when / range / batch).  A request still running at the deadline is
	// abandoned and answered 504, so one shard stuck in slow I/O cannot
	// pile up every client connection behind it (default 30s; <0
	// disables).
	QueryTimeout time.Duration
	// MaxPending bounds the ingest admission queue: while at least this
	// many acknowledged records await application, /v1/ingest answers
	// 429 with a Retry-After header instead of letting the WAL and the
	// drain backlog grow without limit (default 4096; <0 disables).
	MaxPending int
	// Ingester enables live ingestion.  Nil disables data ingress:
	// /v1/ingest answers 503.  /v1/compact remains available either way
	// (compaction is maintenance over data already in the store, useful
	// after offline bulk loads).
	Ingester *ingest.Ingester
	// Follower marks this node a replication follower: its ingester
	// only accepts records shipped from the leader, so /v1/ingest
	// answers 503 not_leader — clients must write to the leader.
	Follower bool
}

// DefaultOptions returns the server defaults.
func DefaultOptions() Options {
	return Options{
		MaxBatch:     256,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
		QueryTimeout: 30 * time.Second,
		MaxPending:   4096,
	}
}

// Server is the HTTP query service over one store.
type Server struct {
	st   *store.Store
	ing  *ingest.Ingester
	opts Options
	mux  *http.ServeMux
	hs   *http.Server

	started  time.Time
	requests atomic.Int64
	failures atomic.Int64

	// Degradation counters: admission rejections (429), abandoned slow
	// queries (504) and range queries answered without their quarantined
	// shards.
	rejected atomic.Int64
	timeouts atomic.Int64
	degraded atomic.Int64

	// Streaming counters: watch subscriptions currently connected, and
	// update payloads delivered to them (initial results + increments).
	watchers      atomic.Int64
	watchNotifies atomic.Int64
}

// New returns a server over st.  Zero-valued options select defaults.
func New(st *store.Store, opts Options) *Server {
	def := DefaultOptions()
	if opts.MaxBatch < 1 {
		opts.MaxBatch = def.MaxBatch
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = def.ReadTimeout
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = def.WriteTimeout
	}
	if opts.QueryTimeout == 0 {
		opts.QueryTimeout = def.QueryTimeout
	}
	if opts.MaxPending == 0 {
		opts.MaxPending = def.MaxPending
	}
	s := &Server{st: st, ing: opts.Ingester, opts: opts, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/where", s.handleWhere)
	s.mux.HandleFunc("POST /v1/when", s.handleWhen)
	s.mux.HandleFunc("POST /v1/range", s.handleRange)
	s.mux.HandleFunc("GET /v1/watch/range", s.handleWatchRange)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/repl/manifest", s.handleReplManifest)
	s.mux.HandleFunc("GET /v1/repl/file/{name}", s.handleReplFile)
	// The http.Server exists from construction so Shutdown is effective
	// even if it races server start (a Serve call after Shutdown returns
	// ErrServerClosed immediately instead of leaking a live listener).
	s.hs = &http.Server{
		Handler:      s.mux,
		ReadTimeout:  opts.ReadTimeout,
		WriteTimeout: opts.WriteTimeout,
	}
	return s
}

// Handler returns the route table (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains in-flight requests and stops the listener (graceful
// shutdown; pass a context with a deadline to bound the drain).  Safe to
// call before, during or after Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// Wire types.  The canonical definitions live in pkg/client — the
// repo's outward-facing typed API — and the server aliases them so the
// two sides of the wire cannot drift.  The historical *JSON names stay
// as aliases for in-tree callers and tests.
type (
	PositionJSON      = client.Position
	RectJSON          = client.Rect
	WhereRequest      = client.WhereRequest
	WhereResultJSON   = client.WhereResult
	WhenRequest       = client.WhenRequest
	WhenResultJSON    = client.WhenResult
	RangeRequest      = client.RangeRequest
	RangeResult       = client.RangeResult
	BatchQuery        = client.BatchQuery
	BatchRequest      = client.BatchRequest
	BatchResult       = client.BatchResult
	RawPointJSON      = client.RawPoint
	RawTrajectoryJSON = client.RawTrajectory
	IngestRequest     = client.IngestRequest
	IngestResponse    = client.IngestResponse
	CompactResponse   = client.CompactResponse
	IngestStatsJSON   = client.IngestStats
	StatsResponse     = client.StatsResponse
	ErrorResponse     = client.ErrorResponse
	Health            = client.Health
)

// Sentinels the handlers wrap so statusFor/codeFor can classify
// failures without string matching.  errBadInput marks
// request-validation failures (400); errQueryTimeout a query abandoned
// at Options.QueryTimeout (504); errTooLarge an oversized batch (413);
// errBacklog admission shedding (429); errIngestDisabled a server
// without a WAL (503); errNotLeader a replication follower refusing a
// direct write (503).
var (
	errBadInput       = errors.New("invalid request")
	errQueryTimeout   = errors.New("query timed out")
	errTooLarge       = errors.New("request too large")
	errBacklog        = errors.New("ingest backlog full")
	errIngestDisabled = errors.New("ingestion disabled")
	errNotLeader      = errors.New("not the leader")
)

// statusFor classifies a query error: caller mistakes (unknown
// trajectory, invalid location) are 400; transient degradation — a
// quarantined shard, a read-only write path, a follower refusing a
// write — is 503 so well-behaved clients back off and retry (or
// redirect to the leader); an abandoned slow query is 504.  A
// generation pin outside the retention window is 410 Gone (permanent:
// re-query at the current generation, do not retry) and a pin the store
// never reached is 404; a replication cursor checkpointed away is also
// 410 (the follower must re-snapshot).  Everything else is a
// server-side 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBadInput) || errors.Is(err, store.ErrUnknownTrajectory) ||
		errors.Is(err, ingest.ErrRejected):
		return http.StatusBadRequest
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errBacklog):
		return http.StatusTooManyRequests
	case errors.Is(err, store.ErrShardQuarantined) || errors.Is(err, ingest.ErrReadOnly) ||
		errors.Is(err, errIngestDisabled) || errors.Is(err, errNotLeader):
		return http.StatusServiceUnavailable
	case errors.Is(err, errQueryTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, store.ErrGenerationRetired) || errors.Is(err, ingest.ErrWALTruncated):
		return http.StatusGone
	case errors.Is(err, store.ErrGenerationUnknown):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// codeFor classifies an error for the v1 envelope — the machine-readable
// twin of statusFor.  Clients switch on these codes, never on message
// text (pkg/client's APIError.Temporary encodes the retry semantics).
func codeFor(err error) string {
	switch {
	case errors.Is(err, store.ErrUnknownTrajectory):
		return client.CodeUnknownTrajectory
	case errors.Is(err, errBadInput) || errors.Is(err, ingest.ErrRejected):
		return client.CodeBadRequest
	case errors.Is(err, errTooLarge):
		return client.CodeTooLarge
	case errors.Is(err, errBacklog):
		return client.CodeBacklog
	case errors.Is(err, store.ErrShardQuarantined):
		return client.CodeShardQuarantined
	case errors.Is(err, ingest.ErrReadOnly):
		return client.CodeReadOnly
	case errors.Is(err, errIngestDisabled):
		return client.CodeIngestDisabled
	case errors.Is(err, errNotLeader):
		return client.CodeNotLeader
	case errors.Is(err, errQueryTimeout):
		return client.CodeTimeout
	case errors.Is(err, store.ErrGenerationRetired):
		return client.CodeGenRetired
	case errors.Is(err, ingest.ErrWALTruncated):
		return client.CodeWALTruncated
	case errors.Is(err, store.ErrGenerationUnknown):
		return client.CodeGenUnknown
	}
	return client.CodeInternal
}

// snapshotFor resolves the store view a query request runs against: the
// current generation, or — with ?gen=N — the retained generation N, so a
// client can re-read exactly what an earlier response (or watch update)
// was computed from.  Every helper below takes the snapshot explicitly,
// which also gives multi-query requests (/v1/batch) one consistent view.
func (s *Server) snapshotFor(r *http.Request) (store.Snapshot, error) {
	q := r.URL.Query().Get("gen")
	if q == "" {
		return s.st.Snapshot(), nil
	}
	gen, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return store.Snapshot{}, fmt.Errorf("%w: gen %q is not an unsigned integer", errBadInput, q)
	}
	return s.st.SnapshotAt(gen)
}

// timed evaluates fn under the server's query timeout.  The store's query
// path takes no context (its engines compute over mapped memory without
// cancellation points), so on expiry the evaluation goroutine is
// abandoned — it finishes against its own view of the store and its
// result is dropped — and the client gets 504 instead of a connection
// held until the write timeout kills it.
func timed[T any](s *Server, fn func() (T, error)) (T, error) {
	if s.opts.QueryTimeout <= 0 {
		return fn()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := fn()
		ch <- outcome{v, err}
	}()
	tm := time.NewTimer(s.opts.QueryTimeout)
	defer tm.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-tm.C:
		s.timeouts.Add(1)
		var zero T
		return zero, errQueryTimeout
	}
}

func (s *Server) whereJSON(sn store.Snapshot, req WhereRequest) ([]WhereResultJSON, error) {
	rs, err := sn.Where(req.Traj, req.T, req.Alpha)
	if err != nil {
		return nil, err
	}
	g := s.st.Graph()
	out := make([]WhereResultJSON, len(rs))
	for i, r := range rs {
		x, y := g.Coords(r.Loc)
		out[i] = WhereResultJSON{
			Inst: r.Inst, P: r.P,
			Edge: int(r.Loc.Edge), NDist: r.Loc.NDist,
			X: x, Y: y,
		}
	}
	return out, nil
}

func (s *Server) whenJSON(sn store.Snapshot, req WhenRequest) ([]WhenResultJSON, error) {
	if n := s.st.Graph().NumEdges(); req.Loc.Edge < 0 || req.Loc.Edge >= n {
		return nil, fmt.Errorf("%w: edge %d outside [0, %d)", errBadInput, req.Loc.Edge, n)
	}
	loc := roadnet.Position{Edge: roadnet.EdgeID(req.Loc.Edge), NDist: req.Loc.NDist}
	rs, err := sn.When(req.Traj, loc, req.Alpha)
	if err != nil {
		return nil, err
	}
	out := make([]WhenResultJSON, len(rs))
	for i, r := range rs {
		out[i] = WhenResultJSON{Inst: r.Inst, P: r.P, T: r.T}
	}
	return out, nil
}

// rangeJSON evaluates a range query over every healthy shard.  skipped
// reports live shards that could not be consulted because they are
// quarantined after open failures: the result is then a lower bound and
// the response is flagged degraded rather than failed (a scatter query
// losing one shard still has value; a 500 would have none).
func (s *Server) rangeJSON(sn store.Snapshot, req RangeRequest) (trajs []int, skipped int, err error) {
	re := roadnet.Rect{MinX: req.Rect.MinX, MinY: req.Rect.MinY, MaxX: req.Rect.MaxX, MaxY: req.Rect.MaxY}
	trajs, skipped, err = sn.RangeDegraded(re, req.T, req.Alpha)
	if err != nil {
		return nil, 0, err
	}
	if skipped > 0 {
		s.degraded.Add(1)
	}
	if trajs == nil {
		trajs = []int{}
	}
	return trajs, skipped, nil
}

func (s *Server) handleWhere(w http.ResponseWriter, r *http.Request) {
	var req WhereRequest
	if !s.decode(w, r, &req) {
		return
	}
	sn, err := s.snapshotFor(r)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	rs, err := timed(s, func() ([]WhereResultJSON, error) { return s.whereJSON(sn, req) })
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.reply(w, map[string]any{"results": rs})
}

func (s *Server) handleWhen(w http.ResponseWriter, r *http.Request) {
	var req WhenRequest
	if !s.decode(w, r, &req) {
		return
	}
	sn, err := s.snapshotFor(r)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	rs, err := timed(s, func() ([]WhenResultJSON, error) { return s.whenJSON(sn, req) })
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.reply(w, map[string]any{"results": rs})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if !s.decode(w, r, &req) {
		return
	}
	sn, err := s.snapshotFor(r)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	type rangeOut struct {
		trajs   []int
		skipped int
	}
	out, err := timed(s, func() (rangeOut, error) {
		trajs, skipped, err := s.rangeJSON(sn, req)
		return rangeOut{trajs, skipped}, err
	})
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.reply(w, RangeResult{Trajs: out.trajs, Degraded: out.skipped > 0, ShardsSkipped: out.skipped})
}

// handleBatch evaluates the request's queries on a bounded worker pool and
// returns per-query results in request order.  Individual failures are
// reported in-band so one bad query does not void the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		err := fmt.Errorf("%w: batch of %d exceeds limit %d", errTooLarge, len(req.Queries), s.opts.MaxBatch)
		s.fail(w, statusFor(err), err)
		return
	}
	// One snapshot for the whole batch: every query answers at the same
	// generation even while ingestion mutates the store mid-batch.
	sn, err := s.snapshotFor(r)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	results, err := timed(s, func() ([]BatchResult, error) {
		results := make([]BatchResult, len(req.Queries))
		// Errors land in results; par.Do never sees one.
		_ = par.Do(par.Workers(s.opts.BatchParallelism), len(req.Queries), func(i int) error {
			q := req.Queries[i]
			switch {
			case q.Kind == "where" && q.Where != nil:
				rs, err := s.whereJSON(sn, *q.Where)
				if err != nil {
					results[i].Error, results[i].Code = err.Error(), codeFor(err)
					return nil
				}
				results[i].Where = rs
			case q.Kind == "when" && q.When != nil:
				rs, err := s.whenJSON(sn, *q.When)
				if err != nil {
					results[i].Error, results[i].Code = err.Error(), codeFor(err)
					return nil
				}
				results[i].When = rs
			case q.Kind == "range" && q.Range != nil:
				trajs, skipped, err := s.rangeJSON(sn, *q.Range)
				if err != nil {
					results[i].Error, results[i].Code = err.Error(), codeFor(err)
					return nil
				}
				results[i].Trajs = trajs
				results[i].Degraded = skipped > 0
			default:
				results[i].Error = fmt.Sprintf("query %d: kind %q without a matching body", i, q.Kind)
				results[i].Code = client.CodeBadRequest
			}
			return nil
		})
		return results, nil
	})
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.reply(w, map[string]any{"results": results})
}

// handleIngest acknowledges raw trajectories.  The whole batch is
// validated before anything touches the WAL, then appended and fsynced
// under one group commit (SubmitBatch), so the request is atomic from the
// client's view: a 400 means nothing was acknowledged, a 200 means the
// entire batch survives a crash.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !s.decode(w, r, &req) {
		return
	}
	if s.ing == nil {
		err := fmt.Errorf("%w: utcqd started without -wal", errIngestDisabled)
		s.fail(w, statusFor(err), err)
		return
	}
	if s.opts.Follower {
		err := fmt.Errorf("%w: this node is a replication follower; submit writes to the leader", errNotLeader)
		s.fail(w, statusFor(err), err)
		return
	}
	if len(req.Trajectories) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%w: no trajectories", errBadInput))
		return
	}
	// Bounded admission: past the pending limit the WAL keeps growing
	// faster than the drain empties it, so shed load here — the batch was
	// not acknowledged and the client retries after backoff.
	if limit := s.opts.MaxPending; limit > 0 {
		if pending := s.ing.Pending(); pending >= limit {
			s.rejected.Add(1)
			err := fmt.Errorf("%w: %d acknowledged records pending (limit %d)", errBacklog, pending, limit)
			s.fail(w, statusFor(err), err)
			return
		}
	}
	raws := make([]traj.RawTrajectory, len(req.Trajectories))
	for i, rt := range req.Trajectories {
		pts := make([]traj.RawPoint, len(rt.Points))
		for k, p := range rt.Points {
			pts[k] = traj.RawPoint{X: p.X, Y: p.Y, T: p.T}
		}
		raws[i] = traj.RawTrajectory{Points: pts}
	}
	first, err := s.ing.SubmitBatch(raws)
	if err != nil {
		// ErrRejected is the client's mistake (400); ErrReadOnly is the
		// WAL failure latch — reads keep working, writes answer 503 until
		// the operator intervenes.
		s.fail(w, statusFor(err), err)
		return
	}
	resp := IngestResponse{Accepted: len(raws), FirstSeq: first}
	if req.Flush {
		// A synchronous flush map-matches and compresses the batch before
		// replying; lift the connection's write deadline so a large batch
		// is not cut off mid-mutation.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
		gen, err := s.ing.Flush()
		if err != nil {
			// The batch IS durably acknowledged — only the synchronous
			// application failed; it will drain later.  A plain 500 would
			// invite a resubmit and duplicate the records, so answer 202
			// with the acknowledgement and the flush failure in-band.
			s.failures.Add(1)
			resp.Generation = s.st.Generation()
			resp.Pending = uint64(s.ing.Pending())
			resp.FlushError = err.Error()
			s.replyStatus(w, http.StatusAccepted, resp)
			return
		}
		resp.Generation = gen
		// The batch has folded; report which records the matcher dropped
		// so sequence-to-id mapping callers (the cluster router) can
		// account for the ids that were never created, and the post-flush
		// trajectory count so those callers can verify their id maps
		// before committing an assignment.
		for _, seq := range s.ing.DroppedIn(first, first+uint64(len(raws))) {
			resp.Dropped = append(resp.Dropped, int(seq-first))
		}
		resp.Trajectories = s.st.NumTrajectories()
	} else {
		resp.Generation = s.st.Generation()
	}
	resp.Pending = uint64(s.ing.Pending())
	s.reply(w, resp)
}

// handleCompact drains pending ingestion and folds the live delta shards
// into a base shard.  Without an ingester the store compacts directly
// (useful after offline bulk loads).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	// Compaction duration scales with the delta population; don't let the
	// server's write timeout cut the response while the merge completes.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	var folded int
	var err error
	if s.ing != nil {
		folded, err = s.ing.Compact()
	} else {
		folded, err = s.st.Compact()
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.reply(w, CompactResponse{Folded: folded, Generation: s.st.Generation()})
}

// handleHealthz is liveness plus degradation visibility: the process is
// alive (200) as long as it can answer, but the body reports "degraded"
// with the reasons — quarantined shards, a read-only write path — so
// operators and load balancers see partial failure without scraping
// /v1/stats.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := Health{Status: "ok"}
	if q := s.st.QuarantinedShards(); q > 0 {
		resp.Status = "degraded"
		resp.QuarantinedShards = q
	}
	if s.ing != nil && s.ing.ReadOnly() != nil {
		resp.Status = "degraded"
		resp.ReadOnly = true
	}
	s.reply(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	b := s.st.Bounds()
	db := s.st.DataBounds()
	resp := StatsResponse{
		Shards:            st.Shards,
		BaseShards:        st.BaseShards,
		DeltaShards:       st.DeltaShards,
		Tombstones:        st.Tombstones,
		OpenShards:        st.OpenShards,
		Trajectories:      st.Trajectories,
		Assignment:        st.Assignment,
		Generation:        st.Generation,
		Compactions:       st.Compactions,
		TimeMin:           st.TimeMin,
		TimeMax:           st.TimeMax,
		Bounds:            RectJSON{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY},
		DataBounds:        RectJSON{MinX: db.MinX, MinY: db.MinY, MaxX: db.MaxX, MaxY: db.MaxY},
		Engine:            client.EngineStats(st.Engine),
		Succinct:          client.SuccinctStats(st.Succinct),
		SidecarLoads:      st.SidecarLoads,
		SidecarRebuilds:   st.SidecarRebuilds,
		MappedBytes:       st.MappedBytes,
		RSSBytes:          st.RSSBytes,
		QuarantinedShards: st.QuarantinedShards,
		ShardOpenFailures: st.ShardOpenFailures,
		Rejected:          s.rejected.Load(),
		Timeouts:          s.timeouts.Load(),
		DegradedQueries:   s.degraded.Load(),
		Watchers:          s.watchers.Load(),
		WatchNotifies:     s.watchNotifies.Load(),
		Requests:          s.requests.Load(),
		Failures:          s.failures.Load(),
		UptimeSeconds:     time.Since(s.started).Seconds(),
	}
	if s.ing != nil {
		is := s.ing.Stats()
		resp.Ingest = &IngestStatsJSON{
			Acked:        is.Acked,
			Applied:      is.Applied,
			Pending:      is.Pending,
			PendingLimit: max(s.opts.MaxPending, 0),
			Matched:      is.Matched,
			Dropped:      is.Dropped,
			Batches:      is.Batches,
			Compactions:  is.Compactions,
			WALBytes:     is.WALBytes,
			ReadOnly:     is.ReadOnly,
			SimplifyEps:  is.SimplifyEps,
			PointsIn:     is.PointsIn,
			PointsKept:   is.PointsKept,
		}
	}
	s.reply(w, resp)
}

// decode parses a JSON body, rejecting unknown fields so client typos
// surface as 400s instead of silently defaulted queries.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	s.requests.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func (s *Server) reply(w http.ResponseWriter, payload any) {
	s.replyStatus(w, http.StatusOK, payload)
}

// replyStatus writes a JSON payload under an explicit status.  An
// encode failure (the client went away mid-body, typically) counts in
// the failures gauge — nothing else can be done at that point, but it
// must not vanish from the counters.
func (s *Server) replyStatus(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		s.failures.Add(1)
	}
}

// fail answers with the v1 error envelope {code, error, retryAfter?}.
// Transient conditions carry a Retry-After header (duplicated in the
// envelope for clients that cannot reach headers) so off-the-shelf
// clients back off: admission rejections clear as soon as the drain
// catches up; quarantined shards and read-only mode take operator time.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.failWith(w, status, codeFor(err), err)
}

// failWith is fail with an explicit envelope code, for the few places
// (the replication file endpoint's not_found) where the code is not a
// sentinel classification.
func (s *Server) failWith(w http.ResponseWriter, status int, code string, err error) {
	s.failures.Add(1)
	env := ErrorResponse{Code: code, Error: err.Error()}
	switch status {
	case http.StatusTooManyRequests:
		env.RetryAfter = 1
	case http.StatusServiceUnavailable:
		env.RetryAfter = 2
	}
	w.Header().Set("Content-Type", "application/json")
	if env.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(env.RetryAfter))
	}
	w.WriteHeader(status)
	if eerr := json.NewEncoder(w).Encode(env); eerr != nil {
		// The envelope itself failed to reach the client; count it so
		// the drop is visible (this was silently ignored before).
		s.failures.Add(1)
	}
}
