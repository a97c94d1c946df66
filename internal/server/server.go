// Package server is the HTTP/JSON surface of the UTCQ system.  One
// handler set serves the paper's three probabilistic queries — where
// (Definition 10), when (Definition 11) and range (Definition 12) — as
// single-query endpoints and as one batched endpoint that fans a
// request's queries across a bounded worker pool, plus POST /v1/ingest,
// POST /v1/compact, /healthz and /v1/stats, over a Backend.
//
// New serves one store (a node): queries read store snapshots, and with
// an ingester attached (Options.Ingester) /v1/ingest acknowledges raw
// trajectories into the WAL; a node also serves the watch and
// replication routes.  internal/cluster's Router is the other Backend:
// it embeds the Server NewHandler builds, so a cluster answers through
// the same decode, error envelope, limits and batch dispatch as a node.
//
// The handlers hold no per-request state beyond the decoded bodies; all
// concurrency control lives in the backend, so one Server instance
// serves any number of connections.
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
	"utcq/internal/store"
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
	// QueryTimeout bounds one query request (where / when / range /
	// batch): the backend runs under the request's context with this
	// deadline, stops at its next shard (or member) boundary once it
	// passes, and the request answers 504 — so one shard stuck in slow
	// I/O cannot pile up every client connection behind it (default 30s;
	// <0 sets no deadline beyond the request's own context).
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
		QueryTimeout: 30 * time.Second,
		MaxPending:   4096,
	}
}

// Reader answers the three queries against one generation of the data.
// One Reader answers a whole /v1/batch, so every query in it sees the
// same generation.
type Reader interface {
	Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error)
	When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error)
	Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error)
}

// Backend is what the handler set serves: one store (New) or a cluster
// router.  Errors are classified by statusFor/codeFor, except a
// *client.APIError, which is answered verbatim.
type Backend interface {
	// Reader resolves the data a query request runs against: the current
	// generation for gen 0, the retained generation gen otherwise.
	Reader(gen uint64) (Reader, error)
	// Ingest admits a non-empty batch of raw trajectories.  A response
	// with FlushError set was acknowledged but not applied (202).
	Ingest(ctx context.Context, req client.IngestRequest) (client.IngestResponse, error)
	Compact(ctx context.Context) (client.CompactResponse, error)
	// Stats reports everything but the handler set's own counters
	// (requests, failures, degraded queries, uptime), which the stats
	// handler fills in; timeouts and watch counters it adds on top.
	Stats(ctx context.Context) client.StatsResponse
	Health(ctx context.Context) client.Health
}

// Server is the HTTP handler set over one Backend.
type Server struct {
	b    Backend
	node *node // b when it is a store: the watch and replication routes read it
	opts Options
	mux  *http.ServeMux
	hs   *http.Server

	started  time.Time
	requests atomic.Int64
	failures atomic.Int64

	// Degradation counters: queries past QueryTimeout (504) and range
	// answers flagged degraded (skipped shards or members).
	timeouts atomic.Int64
	degraded atomic.Int64

	// Streaming counters: watch subscriptions currently connected, and
	// update payloads delivered to them (initial results + increments).
	watchers      atomic.Int64
	watchNotifies atomic.Int64
}

// New returns a server over st.  Zero-valued options select defaults.
func New(st *store.Store, opts Options) *Server {
	if opts.MaxPending == 0 {
		opts.MaxPending = DefaultOptions().MaxPending
	}
	return NewHandler(&node{st: st, ing: opts.Ingester, maxPending: opts.MaxPending, follower: opts.Follower}, opts)
}

// NewHandler returns the handler set over b.  Zero-valued options select
// defaults; MaxPending, Ingester and Follower configure a store's
// backend and are ignored here.
func NewHandler(b Backend, opts Options) *Server {
	def := DefaultOptions()
	if opts.MaxBatch < 1 {
		opts.MaxBatch = def.MaxBatch
	}
	if opts.QueryTimeout == 0 {
		opts.QueryTimeout = def.QueryTimeout
	}
	s := &Server{b: b, opts: opts, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/where", s.handleWhere)
	s.mux.HandleFunc("POST /v1/when", s.handleWhen)
	s.mux.HandleFunc("POST /v1/range", s.handleRange)
	s.mux.HandleFunc("GET /v1/watch/range", s.handleWatchRange)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	if n, ok := b.(*node); ok {
		s.node = n
		s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
		s.mux.HandleFunc("GET /v1/repl/manifest", s.handleReplManifest)
		s.mux.HandleFunc("GET /v1/repl/file/{name}", s.handleReplFile)
	}
	// The http.Server exists from construction so Shutdown is effective
	// even if it races server start (a Serve call after Shutdown returns
	// ErrServerClosed immediately instead of leaking a live listener).
	// The read and write timeouts guard against slow clients; the
	// long-running routes (watch, ingest, compact, replication) lift the
	// write deadline themselves.
	s.hs = &http.Server{
		Handler:      s.mux,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
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

// results is the {"results": [...]} body of where, when and batch.
type results[T any] struct {
	Results T `json:"results"`
}

// Sentinels the handlers wrap so statusFor/codeFor can classify
// failures without string matching.  errBadInput marks
// request-validation failures (400); errQueryTimeout a query stopped
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
// redirect to the leader); a query past its deadline is 504.  A
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

// envelope renders err as the v1 error envelope and its status: a
// *client.APIError (a router's own condition, or a member's answer it
// forwards) verbatim, anything else through statusFor/codeFor.
// Transient conditions carry a Retry-After: admission rejections clear
// as soon as the drain catches up; quarantined shards and read-only mode
// take operator time.
func envelope(err error) (int, client.ErrorResponse) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status, client.ErrorResponse{Code: ae.Code, Error: ae.Message, RetryAfter: int(ae.RetryAfter / time.Second)}
	}
	status := statusFor(err)
	env := client.ErrorResponse{Code: codeFor(err), Error: err.Error()}
	switch status {
	case http.StatusTooManyRequests:
		env.RetryAfter = 1
	case http.StatusServiceUnavailable:
		env.RetryAfter = 2
	}
	return status, env
}

// reader resolves the Reader a query request runs against: the current
// generation, or — with ?gen=N — the retained generation N, so a client
// can re-read exactly what an earlier response (or watch update) was
// computed from.
func (s *Server) reader(r *http.Request) (Reader, error) {
	var gen uint64
	if r.URL.RawQuery != "" {
		if q := r.URL.Query().Get("gen"); q != "" {
			g, err := strconv.ParseUint(q, 10, 64)
			if err != nil || g == 0 {
				return nil, fmt.Errorf("%w: gen %q is not a positive integer", errBadInput, q)
			}
			gen = g
		}
	}
	return s.b.Reader(gen)
}

// query runs eval under the request's context, bounded by QueryTimeout
// unless that is negative.  An evaluation that ran past the deadline
// fails with errQueryTimeout (504) and counts in timeouts.
func (s *Server) query(r *http.Request, eval func(context.Context) error) error {
	ctx := r.Context()
	if s.opts.QueryTimeout >= 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}
	err := eval(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Add(1)
		return errQueryTimeout
	}
	return err
}

// answer runs one single-query request: decode the body into a Q,
// resolve the Reader, and evaluate it under the query deadline.  On
// failure it has already answered the error.
func answer[Q, R any](s *Server, w http.ResponseWriter, r *http.Request, eval func(Reader, context.Context, Q) (R, error)) (R, bool) {
	var req Q
	var out R
	if !s.decode(w, r, &req) {
		return out, false
	}
	rd, err := s.reader(r)
	if err == nil {
		err = s.query(r, func(ctx context.Context) (err error) {
			out, err = eval(rd, ctx, req)
			return err
		})
	}
	if err != nil {
		s.Fail(w, err)
		return out, false
	}
	return out, true
}

func (s *Server) handleWhere(w http.ResponseWriter, r *http.Request) {
	if rs, ok := answer(s, w, r, Reader.Where); ok {
		s.reply(w, results[[]client.WhereResult]{rs})
	}
}

func (s *Server) handleWhen(w http.ResponseWriter, r *http.Request) {
	if rs, ok := answer(s, w, r, Reader.When); ok {
		s.reply(w, results[[]client.WhenResult]{rs})
	}
}

// handleRange answers a range query.  A backend that could not consult
// every shard or member flags the result degraded (a lower bound) rather
// than failing it: a scatter query losing one part still has value; a
// 500 would have none.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	if res, ok := answer(s, w, r, Reader.Range); ok {
		s.countDegraded(res)
		s.reply(w, res)
	}
}

func (s *Server) countDegraded(res client.RangeResult) {
	if res.Degraded {
		s.degraded.Add(1)
	}
}

// handleBatch evaluates the request's queries on a bounded worker pool and
// returns per-query results in request order.  Individual failures are
// reported in-band so one bad query does not void the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		s.Fail(w, fmt.Errorf("%w: batch of %d exceeds limit %d", errTooLarge, len(req.Queries), s.opts.MaxBatch))
		return
	}
	// One Reader for the whole batch: every query answers at the same
	// generation even while ingestion mutates the data mid-batch.
	rd, err := s.reader(r)
	if err != nil {
		s.Fail(w, err)
		return
	}
	out := make([]client.BatchResult, len(req.Queries))
	err = s.query(r, func(ctx context.Context) error {
		// Errors land in out; par.Do never sees one.
		_ = par.Do(par.Workers(s.opts.BatchParallelism), len(req.Queries), func(i int) error {
			s.batchOne(ctx, rd, i, req.Queries[i], &out[i])
			return nil
		})
		// A batch that ran past its deadline fails whole: its tail
		// answered only with context errors.
		return ctx.Err()
	})
	if err != nil {
		s.Fail(w, err)
		return
	}
	s.reply(w, results[[]client.BatchResult]{out})
}

// batchOne evaluates query i of a batch into res, with a failure's
// message and code in-band.
func (s *Server) batchOne(ctx context.Context, rd Reader, i int, q client.BatchQuery, res *client.BatchResult) {
	var err error
	switch {
	case q.Kind == "where" && q.Where != nil:
		res.Where, err = rd.Where(ctx, *q.Where)
	case q.Kind == "when" && q.When != nil:
		res.When, err = rd.When(ctx, *q.When)
	case q.Kind == "range" && q.Range != nil:
		var rr client.RangeResult
		if rr, err = rd.Range(ctx, *q.Range); err == nil {
			s.countDegraded(rr)
			res.Trajs, res.Degraded = rr.Trajs, rr.Degraded
		}
	default:
		err = fmt.Errorf("%w: query %d: kind %q without a matching body", errBadInput, i, q.Kind)
	}
	if err != nil {
		_, env := envelope(err)
		res.Error, res.Code = env.Error, env.Code
	}
}

// handleIngest admits raw trajectories.  The backend decides what an
// acknowledgement means (a node: durable in its WAL; a router: durable
// on the owning members); a response carrying a flush error was
// acknowledged but not applied and answers 202, so the client does not
// resubmit and duplicate the records.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req client.IngestRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Trajectories) == 0 {
		s.Fail(w, fmt.Errorf("%w: no trajectories", errBadInput))
		return
	}
	// A synchronous flush map-matches and compresses the batch before
	// replying (a routed ingest always flushes on the members); lift the
	// connection's write deadline so a large batch is not cut off
	// mid-mutation.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	resp, err := s.b.Ingest(r.Context(), req)
	if err != nil {
		s.Fail(w, err)
		return
	}
	if resp.FlushError != "" {
		s.failures.Add(1)
		s.replyStatus(w, http.StatusAccepted, resp)
		return
	}
	s.reply(w, resp)
}

// handleCompact folds accumulated delta shards into base shards.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	// Compaction duration scales with the delta population; don't let the
	// server's write timeout cut the response while the merge completes.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	resp, err := s.b.Compact(r.Context())
	if err != nil {
		s.Fail(w, err)
		return
	}
	s.reply(w, resp)
}

// handleHealthz is liveness plus degradation visibility: the process is
// alive (200) as long as it can answer, but the body reports "degraded"
// with the reasons, so operators and load balancers see partial failure
// without scraping /v1/stats.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reply(w, s.b.Health(r.Context()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := s.b.Stats(r.Context())
	resp.Requests = s.requests.Load()
	resp.Failures = s.failures.Load()
	resp.DegradedQueries = s.degraded.Load()
	resp.Timeouts += s.timeouts.Load()
	resp.Watchers += s.watchers.Load()
	resp.WatchNotifies += s.watchNotifies.Load()
	resp.UptimeSeconds = time.Since(s.started).Seconds()
	s.reply(w, resp)
}

// decode parses a JSON body, rejecting unknown fields so client typos
// surface as 400s instead of silently defaulted queries.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	s.requests.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.Fail(w, fmt.Errorf("%w: decode request: %v", errBadInput, err))
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

// Fail answers err with the v1 error envelope {code, error, retryAfter?}
// (see envelope), duplicating Retry-After as a header for off-the-shelf
// clients, and counts the failure.
func (s *Server) Fail(w http.ResponseWriter, err error) {
	s.failures.Add(1)
	status, env := envelope(err)
	if env.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(env.RetryAfter))
	}
	s.replyStatus(w, status, env)
}
