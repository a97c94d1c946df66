package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"utcq/internal/par"
	"utcq/internal/server"
	"utcq/pkg/client"
)

// Member names one cluster node and where to reach it.
type Member struct {
	Name string
	URL  string
}

// RouterOptions configure a Router.  The zero value selects defaults.
type RouterOptions struct {
	// Partitions parameterizes the placement; it must match whatever the
	// members' datasets were filtered with (utcqd -cluster-partitions).
	// The ring always uses DefaultVNodes, as the members' placement does.
	Partitions int
	// Parallelism bounds the scatter-gather workers (<1: one per CPU).
	Parallelism int
	// MaxBatch bounds /v1/batch like the single-node server (default 256).
	MaxBatch int
	// QuarantineBackoff is the base fail-fast window after a member
	// stops answering; it doubles per consecutive failure up to 60x
	// (default 1s), mirroring the store's shard quarantine.
	QuarantineBackoff time.Duration
	// RefreshEvery is the background member-stats refresh cadence
	// (default 2s); refreshed bounds drive Range fan-out pruning and
	// quarantine healing.
	RefreshEvery time.Duration
	// HTTPClient overrides the transport to members (tests).
	HTTPClient *http.Client
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.Partitions <= 0 {
		o.Partitions = DefaultPartitions
	}
	if o.QuarantineBackoff <= 0 {
		o.QuarantineBackoff = time.Second
	}
	if o.RefreshEvery <= 0 {
		o.RefreshEvery = 2 * time.Second
	}
	return o
}

// member is one node's runtime state inside the router.
type member struct {
	name string
	url  string
	ord  int // ordinal in Router.members / perNode
	c    *client.Client

	// Quarantine latch, mirroring the store's per-shard quarantine:
	// consecutive transport failures back off exponentially (base
	// RouterOptions.QuarantineBackoff, cap 60x); any success heals.
	fails   atomic.Uint32
	retryAt atomic.Int64 // unix nanos; quarantined while in the future

	// Cached stats, refreshed by Sync/RefreshStats/the background
	// refresher.  dirty marks the cache stale after a routed ingest so
	// bounds pruning never trusts pre-ingest geometry.
	mu      sync.Mutex
	gen     uint64
	trajs   int
	pending uint64
	bounds  client.Rect
	dirty   bool
	statErr string

	// desync is the ingest-desync latch (reason; "" = in sync).  It arms
	// when the router can no longer prove the member's trajectory
	// numbering matches its id maps: an ingest call failed at the
	// transport after the slice may have been durably applied, a flush
	// failed after acknowledgement (fold outcome unknown), or a count
	// verification caught records the router never mapped.  A desynced
	// member keeps serving already-mapped ids (numbering is append-only,
	// so existing translations stay correct) but receives no further
	// routed ingest — mapping past an unknown offset would silently
	// answer point queries with a different trajectory's data.  The latch
	// clears when a reconcile proves the member's count equals exactly
	// the ids the router has mapped (the ambiguous slice never applied),
	// or when a full Sync rebuilds the maps.
	desync string
}

func (m *member) quarantined() bool {
	return time.Now().UnixNano() < m.retryAt.Load()
}

func (m *member) quarantine(base time.Duration) {
	n := m.fails.Add(1)
	d := base
	for i := uint32(1); i < n && d < 60*base; i++ {
		d *= 2
	}
	d = min(d, 60*base)
	m.retryAt.Store(time.Now().Add(d).UnixNano())
}

func (m *member) heal() {
	m.fails.Store(0)
	m.retryAt.Store(0)
}

// markDesynced arms the ingest-desync latch (first reason wins: it
// names the original ambiguity, later failures are its consequences).
func (m *member) markDesynced(reason string) {
	m.mu.Lock()
	if m.desync == "" {
		m.desync = reason
	}
	m.mu.Unlock()
}

// desynced returns the desync reason, or "" while the member's
// numbering is proven consistent with the router's maps.
func (m *member) desynced() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.desync
}

// Router owns the cluster's global trajectory id space and serves the
// single-node HTTP API over N members: it is the server.Backend of the
// handler set it embeds, so requests decode, fail and batch exactly as
// on a node.  Where/When route point queries to the owner; Range
// scatter-gathers with per-member bounds pruning and a deterministic
// (sorted) merge; Ingest splits a batch by placement and forwards each
// slice to its owner.  All routing state is soft: Sync rebuilds it from
// member stats.
type Router struct {
	*server.Server

	place   *Placement
	members []*member
	opts    RouterOptions

	// mu guards the id maps.  node[gid] is the owning member ordinal
	// (-1: a hole burned by a partially failed routed ingest),
	// local[gid] the member-local id, perNode[m][local] the gid — the
	// inverse, used to translate Range results back to global ids.
	mu      sync.RWMutex
	node    []int32
	local   []int32
	perNode [][]int32

	// ingestMu serializes routed ingest end to end: gid assignment must
	// match the order sub-batches land on members, and members number
	// records in arrival order.
	ingestMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router over the members.  Call Sync before
// serving; Start launches the background stats refresher.
func NewRouter(members []Member, opts RouterOptions) *Router {
	opts = opts.withDefaults()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	rt := &Router{
		place: NewPlacement(names, opts.Partitions, DefaultVNodes),
		opts:  opts,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, m := range members {
		rt.members = append(rt.members, &member{
			name: m.Name,
			url:  m.URL,
			ord:  i,
			// Fail fast per call: the router's quarantine — not deep
			// per-request retry — is the degradation mechanism.
			c: client.New(m.URL, client.Options{HTTPClient: opts.HTTPClient, RetryAttempts: 2}),
		})
	}
	// Routed queries run under the handler's default query timeout;
	// member calls inherit its deadline.
	rt.Server = server.NewHandler(rt, server.Options{
		MaxBatch:         opts.MaxBatch,
		BatchParallelism: opts.Parallelism,
	})
	return rt
}

// Shutdown stops the listener, drains in-flight requests and stops the
// background refresher.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.Close()
	return rt.Server.Shutdown(ctx)
}

// Start launches the background stats refresher (quarantine healing and
// bounds pruning freshness).  Close stops it.
func (rt *Router) Start() {
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.opts.RefreshEvery)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), rt.opts.RefreshEvery)
				rt.RefreshStats(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the background refresher (idempotent; safe without Start
// — Shutdown calls it unconditionally).
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// refreshMember re-fetches one member's stats, healing its quarantine
// on success and arming it on transport failure.
func (rt *Router) refreshMember(ctx context.Context, m *member) error {
	st, err := m.c.Stats(ctx)
	if err != nil {
		m.mu.Lock()
		m.statErr = err.Error()
		m.mu.Unlock()
		var ae *client.APIError
		if !errors.As(err, &ae) {
			m.quarantine(rt.opts.QuarantineBackoff)
		}
		return err
	}
	rt.observe(m, st)
	return nil
}

// observe caches a member's fresh stats, heals its quarantine and gives
// a desynced member the chance to reconcile.
func (rt *Router) observe(m *member, st client.StatsResponse) {
	m.mu.Lock()
	m.gen = st.Generation
	m.trajs = st.Trajectories
	m.bounds = st.DataBounds
	if st.Ingest != nil {
		m.pending = st.Ingest.Pending
	} else {
		m.pending = 0
	}
	m.dirty = false
	m.statErr = ""
	m.mu.Unlock()
	m.heal()
	rt.reconcile(m, st)
}

// reconcile clears a member's ingest-desync latch when fresh stats
// prove its numbering still matches the router's maps: nothing pending
// (every acknowledged record has folded, so the count is final) and a
// trajectory count equal to exactly the ids the router has mapped —
// i.e. the ambiguous slice never applied.  A count that stays ahead
// means the member holds records the router cannot map; the latch
// stays armed until an operator rebuilds the maps (restart + Sync).
// Serialized against routed ingest via ingestMu so a slice applied but
// not yet committed is never mistaken for proof either way.
func (rt *Router) reconcile(m *member, st client.StatsResponse) {
	if m.desynced() == "" {
		return
	}
	if st.Ingest != nil && st.Ingest.Pending > 0 {
		return
	}
	if !rt.ingestMu.TryLock() {
		return // an ingest is in flight; reconcile on the next refresh
	}
	defer rt.ingestMu.Unlock()
	rt.mu.RLock()
	mapped := 0
	if m.ord < len(rt.perNode) {
		mapped = len(rt.perNode[m.ord])
	}
	rt.mu.RUnlock()
	if st.Trajectories == mapped {
		m.mu.Lock()
		m.desync = ""
		m.mu.Unlock()
	}
}

// RefreshStats refreshes every member's cached stats in parallel
// (members already quarantined are probed too — a success heals them).
func (rt *Router) RefreshStats(ctx context.Context) {
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		_ = rt.refreshMember(ctx, rt.members[i])
		return nil
	})
}

// Sync builds the global id maps from the members' current contents.
// Every member must be reachable and idle (no pending ingest): the maps
// assume gids were placed by this router's Placement, so the per-member
// trajectory counts derived from walking gid 0..total-1 must equal what
// the members report — a mismatch means the members were loaded with a
// different placement (or not filtered at all) and routing would return
// wrong-trajectory answers.
func (rt *Router) Sync(ctx context.Context) error {
	var firstErr error
	var errMu sync.Mutex
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		if err := rt.refreshMember(ctx, rt.members[i]); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("member %s (%s): %w", rt.members[i].name, rt.members[i].url, err)
			}
			errMu.Unlock()
		}
		return nil
	})
	if firstErr != nil {
		return firstErr
	}
	total := 0
	for _, m := range rt.members {
		m.mu.Lock()
		trajs, pending := m.trajs, m.pending
		m.mu.Unlock()
		if pending > 0 {
			return fmt.Errorf("member %s has %d pending ingest records; flush before sync", m.name, pending)
		}
		total += trajs
	}
	node := make([]int32, total)
	local := make([]int32, total)
	perNode := make([][]int32, len(rt.members))
	for gid := 0; gid < total; gid++ {
		owner := rt.place.Owner(gid)
		node[gid] = int32(owner)
		local[gid] = int32(len(perNode[owner]))
		perNode[owner] = append(perNode[owner], int32(gid))
	}
	for i, m := range rt.members {
		m.mu.Lock()
		trajs := m.trajs
		m.mu.Unlock()
		if got, want := trajs, len(perNode[i]); got != want {
			return fmt.Errorf("member %s holds %d trajectories but the placement assigns it %d of %d: members must be loaded with the same placement (utcqd -cluster-node/-cluster-nodes/-cluster-partitions)",
				m.name, got, want, total)
		}
	}
	rt.mu.Lock()
	rt.node, rt.local, rt.perNode = node, local, perNode
	rt.mu.Unlock()
	// The maps were just proven against every member's actual count, so
	// any ingest-desync latch is stale by construction.
	for _, m := range rt.members {
		m.mu.Lock()
		m.desync = ""
		m.mu.Unlock()
	}
	return nil
}

// NumTrajectories returns the global id space size (holes included).
func (rt *Router) NumTrajectories() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.node)
}

// locate resolves a gid to (member, member-local id), failing fast on
// an unknown gid or a quarantined owner.
func (rt *Router) locate(gid int) (*member, int, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if gid < 0 || gid >= len(rt.node) {
		return nil, 0, errUnknownGID(fmt.Sprintf("unknown trajectory %d (have %d)", gid, len(rt.node)))
	}
	if rt.node[gid] < 0 {
		return nil, 0, errUnknownGID(fmt.Sprintf("trajectory %d was lost to a failed ingest (hole)", gid))
	}
	m := rt.members[rt.node[gid]]
	if m.quarantined() {
		return nil, 0, errNodeDown(m, errors.New("recent failures, backing off"))
	}
	return m, int(rt.local[gid]), nil
}

// Router errors are *client.APIError values, which the handler set
// answers verbatim: the router's own conditions (unknown gid, member
// quarantined or desynced) and a member's classified failure forwarded
// as the member answered it.

func errUnknownGID(detail string) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeUnknownTrajectory,
		Message: "unknown trajectory: " + detail}
}

func errNodeDown(m *member, err error) *client.APIError {
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: client.CodeNodeQuarantined,
		Message: fmt.Sprintf("node %s is quarantined: %v", m.name, err), RetryAfter: 2 * time.Second}
}

func errNodeDesynced(m *member, reason string) *client.APIError {
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: client.CodeNodeDesynced,
		Message:    fmt.Sprintf("node %s is desynced (%s); ingest refused until a reconcile — do not blindly resubmit, records may already be durable there", m.name, reason),
		RetryAfter: 5 * time.Second}
}

// memberErr classifies the outcome of a member call made under ctx (nil
// stays nil): a classified APIError is forwarded verbatim (the member's
// 400/404/410/500 is the truth about that data); a call cut short by
// the caller's own context returns that context's error and leaves the
// member alone; any other transport-level failure quarantines the
// member and answers node_quarantined so clients back off while the
// router fails fast.
func (rt *Router) memberErr(ctx context.Context, m *member, err error) error {
	if err == nil {
		return nil
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	m.quarantine(rt.opts.QuarantineBackoff)
	return errNodeDown(m, err)
}

// Reader serves queries at the current generation only: generations
// are per-member state, so a pin is only meaningful against one node.
func (rt *Router) Reader(gen uint64) (server.Reader, error) {
	if gen != 0 {
		return nil, &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadRequest,
			Message: "generation pins are per-node state; pin against a member node directly"}
	}
	return rt, nil
}

// Where evaluates one where-query by ownership.
func (rt *Router) Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error) {
	m, local, err := rt.locate(req.Traj)
	if err != nil {
		return nil, err
	}
	req.Traj = local
	rs, err := m.c.Where(ctx, req)
	return rs, rt.memberErr(ctx, m, err)
}

// When evaluates one when-query by ownership.
func (rt *Router) When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error) {
	m, local, err := rt.locate(req.Traj)
	if err != nil {
		return nil, err
	}
	req.Traj = local
	rs, err := m.c.When(ctx, req)
	return rs, rt.memberErr(ctx, m, err)
}

// Range scatter-gathers a range query: members that cannot hold a
// matching trajectory (empty, or fresh bounds disjoint from the query
// rectangle — the same geometry pruning the store applies per shard)
// are never contacted; quarantined or failing members are skipped and
// counted, degrading the result to a lower bound instead of failing it.
// A query whose own context ends fails with that context's error.
// The merge translates member-local ids to gids and sorts, so the
// answer is deterministic and ≡ a single-node store over the same data.
func (rt *Router) Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error) {
	// Copy the inner slice headers under the lock: Ingest reassigns
	// rt.perNode[owner] when it commits.  The arrays behind them are only
	// appended to, so indices below the copied lengths never change.
	rt.mu.RLock()
	perNode := append([][]int32(nil), rt.perNode...)
	rt.mu.RUnlock()

	type nodeOut struct {
		res     client.RangeResult
		skipped bool
	}
	outs := make([]nodeOut, len(rt.members))
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		m := rt.members[i]
		if len(perNode) > i && len(perNode[i]) == 0 {
			return nil // owns nothing; nothing to ask
		}
		m.mu.Lock()
		bounds, dirty := m.bounds, m.dirty
		m.mu.Unlock()
		// Geometry pruning mirrors store.rangeView: only with alpha > 0
		// (a zero threshold admits zero-probability presence), only
		// against fresh bounds (dirty means un-refreshed post-ingest
		// geometry), and never against the empty inverted marker.
		if req.Alpha > 0 && !dirty && bounds.MinX <= bounds.MaxX && !req.Rect.Intersects(bounds) {
			return nil
		}
		if m.quarantined() {
			outs[i] = nodeOut{skipped: true}
			return nil
		}
		res, err := m.c.Range(ctx, req)
		if err != nil {
			_ = rt.memberErr(ctx, m, err) // quarantines m on a transport failure
			outs[i] = nodeOut{skipped: true}
			return nil
		}
		outs[i] = nodeOut{res: res}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return client.RangeResult{}, err
	}

	out := client.RangeResult{Trajs: []int{}}
	for i, o := range outs {
		if o.skipped {
			out.NodesSkipped++
			continue
		}
		out.ShardsSkipped += o.res.ShardsSkipped
		if o.res.Degraded {
			out.Degraded = true
		}
		for _, localID := range o.res.Trajs {
			if localID < 0 {
				// Negative ids cannot come from a store; surface loudly
				// rather than mistranslate.
				return client.RangeResult{}, &client.APIError{Status: http.StatusInternalServerError,
					Code:    client.CodeInternal,
					Message: fmt.Sprintf("member %s returned invalid local id %d", rt.members[i].name, localID)}
			}
			if len(perNode) <= i || localID >= len(perNode[i]) {
				// The member holds records newer than this query's map
				// snapshot: a routed ingest it has applied but the router
				// has not committed yet (queries deliberately do not take
				// ingestMu), or an orphan slice on a desynced member.
				// Either way the id has no global translation here —
				// skip it and degrade the answer to a lower bound, the
				// same contract as a skipped node.
				out.Degraded = true
				continue
			}
			out.Trajs = append(out.Trajs, int(perNode[i][localID]))
		}
	}
	if out.NodesSkipped > 0 || out.ShardsSkipped > 0 {
		out.Degraded = true
	}
	sort.Ints(out.Trajs)
	return out, nil
}

// Ingest splits the batch by placement over freshly assigned gids and
// forwards each slice to its owner.  The global assignment is
// provisional until the owner acknowledges: a slice whose owner fails
// burns its gids as holes (they answer unknown_trajectory until
// re-ingested) rather than shifting every later assignment — routed
// ingest is at-most-once per node, and the response's nodes section
// tells the client exactly which slices need resubmitting.
func (rt *Router) Ingest(ctx context.Context, req client.IngestRequest) (client.IngestResponse, error) {
	rt.ingestMu.Lock()
	defer rt.ingestMu.Unlock()

	rt.mu.RLock()
	base := len(rt.node)
	rt.mu.RUnlock()

	// Slice the batch by owner, preserving submission order per member
	// (members number records in arrival order, and ingestMu keeps
	// concurrent routed batches from interleaving).
	type slice struct {
		gids  []int
		trajs []client.RawTrajectory
	}
	slices := make([]slice, len(rt.members))
	owners := make([]int, len(req.Trajectories))
	for i, tr := range req.Trajectories {
		gid := base + i
		owner := rt.place.Owner(gid)
		owners[i] = owner
		slices[owner].gids = append(slices[owner].gids, gid)
		slices[owner].trajs = append(slices[owner].trajs, tr)
	}

	type nodeAck struct {
		resp client.IngestResponse
		err  error
	}
	acks := make([]nodeAck, len(rt.members))
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		if len(slices[i].trajs) == 0 {
			return nil
		}
		m := rt.members[i]
		if reason := m.desynced(); reason != "" {
			acks[i].err = errNodeDesynced(m, reason)
			return nil
		}
		if m.quarantined() {
			acks[i].err = errNodeDown(m, errors.New("recent failures, backing off"))
			return nil
		}
		// Routed ingest always flushes, whatever the client asked: the
		// fold outcome (which records the matcher dropped) is the only
		// way to keep the router's id maps exact, and it is only
		// reported on synchronous flushes.
		resp, err := m.c.Ingest(ctx, slices[i].trajs, true)
		if err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) {
				// A transport-level failure after the slice went out is
				// ambiguous: the member may have durably acknowledged and
				// applied every record even though we never saw the
				// response.  Assuming "not applied" and burning holes
				// would leave the member's numbering ahead of the maps
				// and silently mistranslate every later ingest to it, so
				// latch the member desynced until a count reconcile (the
				// background refresher) proves which way it went.
				m.quarantine(rt.opts.QuarantineBackoff)
				m.markDesynced(fmt.Sprintf(
					"ingest of %d records failed in transit (%v); the member may have applied the slice", len(slices[i].trajs), err))
			}
			acks[i].err = err
			return nil
		}
		acks[i].resp = resp
		return nil
	})

	// Classify each ack before touching the maps: a slice is committed
	// only when the member's flush succeeded AND its post-flush count
	// proves the numbering still lines up with the router's maps.
	rt.mu.RLock()
	mappedBefore := make([]int, len(rt.members))
	for i := range rt.members {
		if i < len(rt.perNode) {
			mappedBefore[i] = len(rt.perNode[i])
		}
	}
	rt.mu.RUnlock()

	okNode := make([]bool, len(rt.members))
	nodeErr := make([]*client.APIError, len(rt.members))
	dropSet := make([]map[int]bool, len(rt.members))
	for i, m := range rt.members {
		if len(slices[i].trajs) == 0 {
			continue
		}
		if acks[i].err != nil {
			// A transport failure already quarantined and latched the
			// member above.
			if !errors.As(acks[i].err, &nodeErr[i]) {
				nodeErr[i] = errNodeDown(m, acks[i].err)
			}
			continue
		}
		resp := acks[i].resp
		if resp.FlushError != "" {
			// Acked but not folded (202): the records are durable on the
			// member and WILL fold later, but which of them the matcher
			// drops is unknown — committing the mapping now would guess
			// the member's numbering.  Latch desynced; the reconcile can
			// only clear it if every record ends up dropped, otherwise an
			// operator re-sync rebuilds the maps.
			reason := fmt.Sprintf("flush failed after %d records were acknowledged (%s); fold outcome unknown", resp.Accepted, resp.FlushError)
			m.markDesynced(reason)
			nodeErr[i] = errNodeDesynced(m, reason)
			continue
		}
		if want := mappedBefore[i] + resp.Accepted - len(resp.Dropped); resp.Trajectories != want {
			// The member folded records the router never mapped (a lost
			// ack that nonetheless applied, or out-of-band ingest): every
			// local id past the map is unattributable, so refuse the
			// commit loudly instead of mistranslating.
			reason := fmt.Sprintf("post-flush count %d, expected %d: the member holds records the router never mapped", resp.Trajectories, want)
			m.markDesynced(reason)
			nodeErr[i] = errNodeDesynced(m, reason)
			continue
		}
		okNode[i] = true
		if len(resp.Dropped) > 0 {
			dropSet[i] = make(map[int]bool, len(resp.Dropped))
			for _, j := range resp.Dropped {
				dropSet[i][j] = true
			}
		}
	}

	anyOK := false
	var firstErr *client.APIError
	for i := range rt.members {
		if len(slices[i].trajs) == 0 {
			continue
		}
		if okNode[i] {
			anyOK = true
		} else if firstErr == nil {
			firstErr = nodeErr[i]
		}
	}
	if !anyOK {
		// Nothing was accepted anywhere: leave the id space untouched so
		// a retried batch (e.g. after backlog shedding) does not burn a
		// fresh gid range as holes on every attempt.
		if firstErr == nil {
			firstErr = &client.APIError{Status: http.StatusInternalServerError, Code: client.CodeInternal, Message: "no member accepted the batch"}
		}
		return client.IngestResponse{}, firstErr
	}

	// Commit the assignment: verified slices extend the maps; failed
	// slices — and individual records the member's matcher dropped at
	// fold — burn their gids as holes, so every later record keeps the
	// exact member-local id its store actually assigned.
	rt.mu.Lock()
	posIn := make([]int, len(rt.members))
	var droppedGlobal []int
	for i := range req.Trajectories {
		owner := owners[i]
		j := posIn[owner]
		posIn[owner]++
		switch {
		case okNode[owner] && !dropSet[owner][j]:
			rt.node = append(rt.node, int32(owner))
			rt.local = append(rt.local, int32(len(rt.perNode[owner])))
			rt.perNode[owner] = append(rt.perNode[owner], int32(base+i))
		case okNode[owner]: // matcher dropped it: sequence burned, no id
			droppedGlobal = append(droppedGlobal, i)
			rt.node = append(rt.node, -1)
			rt.local = append(rt.local, -1)
		default:
			rt.node = append(rt.node, -1)
			rt.local = append(rt.local, -1)
		}
	}
	total := len(rt.node)
	rt.mu.Unlock()

	out := client.IngestResponse{FirstSeq: uint64(base), Trajectories: total, Dropped: droppedGlobal}
	for i, m := range rt.members {
		if len(slices[i].trajs) == 0 {
			continue
		}
		n := client.NodeIngestResult{Name: m.name}
		if !okNode[i] {
			n.Error, n.Code = nodeErr[i].Message, nodeErr[i].Code
		} else {
			n.Accepted = acks[i].resp.Accepted
			n.FirstSeq = acks[i].resp.FirstSeq
			out.Accepted += acks[i].resp.Accepted
			out.Pending += acks[i].resp.Pending
			out.Generation = max(out.Generation, acks[i].resp.Generation)
		}
		// Any member that might hold new records — committed, flush
		// pending, or ambiguous — has stale cached geometry; dirty
		// disables bounds pruning against it until the next refresh.
		if okNode[i] || m.desynced() != "" {
			m.mu.Lock()
			m.dirty = true
			m.mu.Unlock()
		}
		out.Nodes = append(out.Nodes, n)
	}
	return out, nil
}

// Compact fans compaction out to every member.
func (rt *Router) Compact(ctx context.Context) (client.CompactResponse, error) {
	resps := make([]client.CompactResponse, len(rt.members))
	errs := make([]error, len(rt.members))
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		resps[i], errs[i] = rt.members[i].c.Compact(ctx)
		return nil
	})
	out := client.CompactResponse{}
	for i, m := range rt.members {
		if errs[i] != nil {
			return client.CompactResponse{}, rt.memberErr(ctx, m, errs[i])
		}
		out.Folded += resps[i].Folded
		out.Generation = max(out.Generation, resps[i].Generation)
	}
	return out, nil
}

// Health reports the cluster's aggregate liveness: "degraded" when any
// member is quarantined, unreachable or desynced, with a per-node
// breakdown.
func (rt *Router) Health(context.Context) client.Health {
	resp := client.Health{Status: "ok"}
	for _, m := range rt.members {
		nh := client.NodeHealth{Name: m.name, Status: "ok"}
		m.mu.Lock()
		statErr, desync := m.statErr, m.desync
		m.mu.Unlock()
		if m.quarantined() {
			nh.Status, nh.Error = "quarantined", statErr
			resp.Status = "degraded"
		} else if statErr != "" {
			nh.Status, nh.Error = "unreachable", statErr
			resp.Status = "degraded"
		} else if desync != "" {
			nh.Status, nh.Error = "desynced", desync
			resp.Status = "degraded"
		}
		resp.Nodes = append(resp.Nodes, nh)
	}
	return resp
}

// Stats aggregates member stats (fetched live, in parallel) into the
// single-node shape plus a cluster section, so loadgen and dashboards
// work unchanged against a router.
func (rt *Router) Stats(ctx context.Context) client.StatsResponse {
	stats := make([]client.StatsResponse, len(rt.members))
	errs := make([]error, len(rt.members))
	_ = par.Do(par.Workers(rt.opts.Parallelism), len(rt.members), func(i int) error {
		stats[i], errs[i] = rt.members[i].c.Stats(ctx)
		if errs[i] == nil {
			rt.observe(rt.members[i], stats[i])
		}
		return nil
	})

	rt.mu.RLock()
	total := len(rt.node)
	holes := 0
	for _, n := range rt.node {
		if n < 0 {
			holes++
		}
	}
	rt.mu.RUnlock()

	out := client.StatsResponse{
		Assignment:   fmt.Sprintf("cluster(%d nodes x %d partitions)", len(rt.members), rt.place.Partitions()),
		Trajectories: total,
		Bounds:       client.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0},
		DataBounds:   client.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0},
		Cluster:      &client.ClusterStats{Partitions: rt.place.Partitions(), Holes: holes},
	}
	firstSpan := true
	var ingestAgg client.IngestStats
	anyIngest := false
	for i, m := range rt.members {
		ns := client.NodeStats{Name: m.name, URL: m.url, Desynced: m.desynced() != ""}
		if errs[i] != nil {
			ns.Error = errs[i].Error()
			ns.Quarantined = m.quarantined()
			out.Cluster.Nodes = append(out.Cluster.Nodes, ns)
			continue
		}
		st := stats[i]
		ns.Trajectories = st.Trajectories
		ns.Generation = st.Generation
		if st.Ingest != nil {
			ns.Pending = st.Ingest.Pending
		}
		out.Cluster.Nodes = append(out.Cluster.Nodes, ns)

		out.Shards += st.Shards
		out.BaseShards += st.BaseShards
		out.DeltaShards += st.DeltaShards
		out.Tombstones += st.Tombstones
		out.OpenShards += st.OpenShards
		out.Generation = max(out.Generation, st.Generation)
		out.Compactions += st.Compactions
		if firstSpan || st.TimeMin < out.TimeMin {
			out.TimeMin = st.TimeMin
		}
		if firstSpan || st.TimeMax > out.TimeMax {
			out.TimeMax = st.TimeMax
		}
		firstSpan = false
		out.Bounds = unionRect(out.Bounds, st.Bounds)
		out.DataBounds = unionRect(out.DataBounds, st.DataBounds)

		out.Engine.PathsDecoded += st.Engine.PathsDecoded
		out.Engine.InstancesSkipped += st.Engine.InstancesSkipped
		out.Engine.TrajsPruned += st.Engine.TrajsPruned
		out.Engine.TrajsAccepted += st.Engine.TrajsAccepted

		out.SidecarLoads += st.SidecarLoads
		out.SidecarRebuilds += st.SidecarRebuilds
		out.Succinct.RegionBlocksDecoded += st.Succinct.RegionBlocksDecoded
		out.Succinct.RegionPrunedNoTouch += st.Succinct.RegionPrunedNoTouch
		out.Succinct.TemporalSectionsForced += st.Succinct.TemporalSectionsForced
		out.Succinct.SuccinctBytes += st.Succinct.SuccinctBytes
		out.Succinct.TemporalBytes += st.Succinct.TemporalBytes
		out.Succinct.IntervalBytes += st.Succinct.IntervalBytes
		out.MappedBytes += st.MappedBytes
		out.RSSBytes += st.RSSBytes
		out.QuarantinedShards += st.QuarantinedShards
		out.ShardOpenFailures += st.ShardOpenFailures
		out.Rejected += st.Rejected
		out.Timeouts += st.Timeouts
		out.Watchers += st.Watchers
		out.WatchNotifies += st.WatchNotifies

		if st.Ingest != nil {
			anyIngest = true
			ingestAgg.Acked += st.Ingest.Acked
			ingestAgg.Applied += st.Ingest.Applied
			ingestAgg.Pending += st.Ingest.Pending
			ingestAgg.PendingLimit += st.Ingest.PendingLimit
			ingestAgg.Matched += st.Ingest.Matched
			ingestAgg.Dropped += st.Ingest.Dropped
			ingestAgg.Batches += st.Ingest.Batches
			ingestAgg.Compactions += st.Ingest.Compactions
			ingestAgg.WALBytes += st.Ingest.WALBytes
			ingestAgg.ReadOnly = ingestAgg.ReadOnly || st.Ingest.ReadOnly
			ingestAgg.SimplifyEps = st.Ingest.SimplifyEps
			ingestAgg.PointsIn += st.Ingest.PointsIn
			ingestAgg.PointsKept += st.Ingest.PointsKept
		}
	}
	if anyIngest {
		out.Ingest = &ingestAgg
	}
	return out
}

// unionRect merges two rectangles, treating the inverted marker as
// empty.
func unionRect(a, b client.Rect) client.Rect {
	if a.MinX > a.MaxX {
		return b
	}
	if b.MinX > b.MaxX {
		return a
	}
	return client.Rect{
		MinX: min(a.MinX, b.MinX), MinY: min(a.MinY, b.MinY),
		MaxX: max(a.MaxX, b.MaxX), MaxY: max(a.MaxY, b.MaxY),
	}
}
