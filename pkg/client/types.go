// Package client is the typed Go client of the utcqd HTTP API: the
// wire types of every /v1 endpoint, a context-aware Client with
// capped-backoff retry that honors Retry-After, and a cursor-resuming
// Watcher for /v1/watch/range.  The server (internal/server) aliases
// these types, so the wire contract is defined once; the router
// (internal/cluster), loadgen (cmd/utcq) and the examples all speak the
// API through this package instead of hand-rolled HTTP.
//
// The package deliberately depends only on the standard library: it is
// the repo's outward-facing API surface and must stay importable without
// dragging the engine in.
package client

// Position is a network-constrained location.
type Position struct {
	Edge  int     `json:"edge"`
	NDist float64 `json:"ndist"`
}

// Rect is an axis-aligned rectangle.  An inverted rectangle
// (MinX > MaxX) is the empty marker used by dataBounds for stores that
// hold no geometry yet.
type Rect struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// Intersects reports whether the rectangles overlap (inclusive edges).
// Inverted (empty) rectangles intersect nothing.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// WhereRequest asks where trajectory Traj's instances with probability
// >= Alpha were at time T.  Gen, when non-zero, pins the query to a
// retained store generation (sent as ?gen=N, never in the body — the
// server rejects unknown body fields).
type WhereRequest struct {
	Traj  int     `json:"traj"`
	T     int64   `json:"t"`
	Alpha float64 `json:"alpha"`
	Gen   uint64  `json:"-"`
}

// WhereResult is one instance's location, with the grid coordinates
// resolved for convenience.
type WhereResult struct {
	Inst  int     `json:"inst"`
	P     float64 `json:"p"`
	Edge  int     `json:"edge"`
	NDist float64 `json:"ndist"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// WhenRequest asks when trajectory Traj's instances with probability
// >= Alpha passed Loc.
type WhenRequest struct {
	Traj  int      `json:"traj"`
	Loc   Position `json:"loc"`
	Alpha float64  `json:"alpha"`
	Gen   uint64   `json:"-"`
}

// WhenResult is one instance's passage time.
type WhenResult struct {
	Inst int     `json:"inst"`
	P    float64 `json:"p"`
	T    int64   `json:"t"`
}

// RangeRequest asks which trajectories were inside Rect at time T with
// total probability >= Alpha.
type RangeRequest struct {
	Rect  Rect    `json:"rect"`
	T     int64   `json:"t"`
	Alpha float64 `json:"alpha"`
	Gen   uint64  `json:"-"`
}

// RangeResult is the /v1/range payload.  Degraded marks a lower-bound
// answer: ShardsSkipped live shards (single node) and/or NodesSkipped
// cluster members could not be consulted.
type RangeResult struct {
	Trajs         []int `json:"trajs"`
	Degraded      bool  `json:"degraded,omitempty"`
	ShardsSkipped int   `json:"shardsSkipped,omitempty"`
	NodesSkipped  int   `json:"nodesSkipped,omitempty"`
}

// BatchQuery is one query of a batch; exactly one of Where, When and
// Range must be set, matching Kind ("where", "when" or "range").
type BatchQuery struct {
	Kind  string        `json:"kind"`
	Where *WhereRequest `json:"where,omitempty"`
	When  *WhenRequest  `json:"when,omitempty"`
	Range *RangeRequest `json:"range,omitempty"`
}

// BatchRequest carries the batch; Gen pins every query in it to one
// retained generation (query parameter, like the single-query requests).
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
	Gen     uint64       `json:"-"`
}

// BatchResult is the outcome of one batch query, in request order.  On
// success the field matching the query kind holds the results and Error
// is empty; a query with zero results serializes as {} (empty payloads
// are omitted).  Error carries the failure otherwise, with Code its
// machine-readable classification (same vocabulary as ErrorResponse).
// Degraded marks a range result that skipped quarantined shards or
// nodes and is therefore a lower bound.
type BatchResult struct {
	Where    []WhereResult `json:"where,omitempty"`
	When     []WhenResult  `json:"when,omitempty"`
	Trajs    []int         `json:"trajs,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Error    string        `json:"error,omitempty"`
	Code     string        `json:"code,omitempty"`
}

// RawPoint is one GPS fix of an ingested trajectory.
type RawPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	T int64   `json:"t"`
}

// RawTrajectory is one raw trajectory submitted for ingestion.
type RawTrajectory struct {
	Points []RawPoint `json:"points"`
}

// IngestRequest carries raw trajectories for the WAL.  With Flush set
// the response is only sent after the batch has been map-matched and
// folded into the store.
type IngestRequest struct {
	Trajectories []RawTrajectory `json:"trajectories"`
	Flush        bool            `json:"flush,omitempty"`
}

// IngestResponse reports the acknowledged batch.  FlushError is set
// (with HTTP 202) when the batch was durably acknowledged but a
// requested synchronous flush failed afterwards: the records are NOT
// lost and the client MUST NOT resubmit them.  Dropped (synchronous
// flush only) lists the batch-relative indices of records that were
// acknowledged but rejected by the map matcher at fold time — they
// consumed a WAL sequence but produced no queryable trajectory, so the
// next accepted record's trajectory id is NOT FirstSeq-relative when the
// list is non-empty.  Trajectories (synchronous flush only) is the
// store's post-flush trajectory count — the cluster router verifies its
// id maps against it before committing an assignment, so a member that
// silently holds records the router never mapped (a lost ack that
// nonetheless applied) is detected instead of mistranslated.  Nodes is
// present only on routed (cluster) ingest, one entry per member that
// received a sub-batch.
type IngestResponse struct {
	Accepted     int                `json:"accepted"`
	FirstSeq     uint64             `json:"firstSeq"`
	Pending      uint64             `json:"pending"`
	Generation   uint64             `json:"generation"`
	Trajectories int                `json:"trajectories,omitempty"`
	FlushError   string             `json:"flushError,omitempty"`
	Dropped      []int              `json:"dropped,omitempty"`
	Nodes        []NodeIngestResult `json:"nodes,omitempty"`
}

// NodeIngestResult is one member's share of a routed ingest batch.
type NodeIngestResult struct {
	Name     string `json:"name"`
	Accepted int    `json:"accepted"`
	FirstSeq uint64 `json:"firstSeq"`
	Error    string `json:"error,omitempty"`
	Code     string `json:"code,omitempty"`
}

// CompactResponse reports a compaction run.
type CompactResponse struct {
	Folded     int    `json:"folded"`
	Generation uint64 `json:"generation"`
}

// IngestStats mirrors the ingestion pipeline's counters on /v1/stats.
// PendingLimit is the server's admission bound (0 = unbounded);
// ReadOnly reports the write path latched off after a WAL failure.
type IngestStats struct {
	Acked        uint64 `json:"acked"`
	Applied      uint64 `json:"applied"`
	Pending      uint64 `json:"pending"`
	PendingLimit int    `json:"pendingLimit"`
	Matched      int64  `json:"matched"`
	Dropped      int64  `json:"dropped"`
	Batches      int64  `json:"batches"`
	Compactions  int64  `json:"compactions"`
	WALBytes     int64  `json:"walBytes"`
	ReadOnly     bool   `json:"readOnly"`
	// Admission-time simplification: the configured SED budget (0:
	// off) and the raw points submitted vs surviving it.
	SimplifyEps float64 `json:"simplifyEps"`
	PointsIn    int64   `json:"pointsIn"`
	PointsKept  int64   `json:"pointsKept"`
}

// EngineStats mirrors the query engine's aggregated counters
// (internal/query.EngineStats) field for field — deliberately untagged,
// so the JSON keys stay the Go field names the stats payload has
// always used, and the server can convert the internal struct directly.
type EngineStats struct {
	PathsDecoded     int64
	InstancesSkipped int64
	TrajsPruned      int64
	TrajsAccepted    int64

	// Deprecated: always 0.  The engine has no cache.
	CacheHits int64
	// Deprecated: always 0.  The engine has no cache.
	CacheMisses int64
}

// NodeStats is one cluster member's row in a router's /v1/stats.
type NodeStats struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Trajectories int    `json:"trajectories"`
	Generation   uint64 `json:"generation"`
	Pending      uint64 `json:"pending"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	// Desynced reports the router's ingest-desync latch (see
	// CodeNodeDesynced): reads of mapped ids keep working, routed ingest
	// to this member is refused until a reconcile clears it.
	Desynced bool   `json:"desynced,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ClusterStats is the router's placement/topology section of /v1/stats.
type ClusterStats struct {
	Nodes      []NodeStats `json:"nodes"`
	Partitions int         `json:"partitions"`
	// Holes counts global ids burned by a partially failed routed
	// ingest: they answer unknown_trajectory until re-ingested.
	Holes int `json:"holes"`
}

// SuccinctStats mirrors the StIU succinct-index counters
// (internal/stiu.IndexStats) summed across a store's open shards.
type SuccinctStats struct {
	// RegionBlocksDecoded counts region buckets materialized from
	// sidecar bytes; RegionPrunedNoTouch counts grid cells the occupancy
	// bitvectors answered empty without decoding anything.  A range
	// query adds its rectangle's empty cells in one step, so the totals
	// are those of one probe per cell.
	RegionBlocksDecoded int64 `json:"regionBlocksDecoded"`
	RegionPrunedNoTouch int64 `json:"regionPrunedNoTouch"`
	// TemporalSectionsForced counts per-trajectory temporal sections
	// decoded on first touch.
	TemporalSectionsForced int64 `json:"temporalSectionsForced"`
	// SuccinctBytes is the resident footprint of the succinct structures:
	// temporal directories, occupancy bitvectors and the bucket boundary
	// tables derived so far.
	SuccinctBytes int64 `json:"succinctBytes"`
	// TemporalBytes and IntervalBytes split the open shards' index bytes
	// by sidecar section.
	TemporalBytes int64 `json:"temporalBytes"`
	IntervalBytes int64 `json:"intervalBytes"`
}

// StatsResponse is the /v1/stats payload: store shape, aggregated
// engine counters, ingestion state, and server request totals.  Bounds
// and the time span let load generators synthesize valid queries
// without a side channel.
type StatsResponse struct {
	Shards       int    `json:"shards"`
	BaseShards   int    `json:"baseShards"`
	DeltaShards  int    `json:"deltaShards"`
	Tombstones   int    `json:"tombstones"`
	OpenShards   int    `json:"openShards"`
	Trajectories int    `json:"trajectories"`
	Assignment   string `json:"assignment"`
	Generation   uint64 `json:"generation"`
	Compactions  int64  `json:"compactions"`
	TimeMin      int64  `json:"timeMin"`
	TimeMax      int64  `json:"timeMax"`
	Bounds       Rect   `json:"bounds"`

	// DataBounds is the union of the live shards' recorded geometry
	// bounds — what the data actually covers, as opposed to Bounds
	// (the road network's extent).  The cluster router prunes Range
	// fan-out with it.  Inverted (MinX > MaxX) when the store holds no
	// geometry.
	DataBounds Rect `json:"dataBounds"`

	Engine EngineStats `json:"engine"`

	// Memory-serving gauges (PR6): sidecar cache effectiveness and
	// process residency.
	SidecarLoads    int64 `json:"sidecarLoads"`
	SidecarRebuilds int64 `json:"sidecarRebuilds"`
	MappedBytes     int64 `json:"mappedBytes"`
	RSSBytes        int64 `json:"rssBytes"`

	// Succinct reports the StIU rank/select layer: how often pruning
	// answered without decoding anything vs. the blocks and temporal
	// sections actually decoded, and the index bytes per section.
	Succinct SuccinctStats `json:"succinct"`

	// Degradation state (PR7).
	QuarantinedShards int   `json:"quarantinedShards"`
	ShardOpenFailures int64 `json:"shardOpenFailures"`
	Rejected          int64 `json:"rejected"`
	Timeouts          int64 `json:"timeouts"`
	DegradedQueries   int64 `json:"degradedQueries"`

	// Streaming state (PR8).
	Watchers      int64 `json:"watchers"`
	WatchNotifies int64 `json:"watchNotifies"`

	// Ingest is present only when the server was started with an
	// ingester attached.
	Ingest *IngestStats `json:"ingest,omitempty"`

	// Cluster is present only on a router (utcqd -members).
	Cluster *ClusterStats `json:"cluster,omitempty"`

	Requests      int64   `json:"requests"`
	Failures      int64   `json:"failures"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// WatchUpdate is one /v1/watch/range update.  Added holds the
// trajectories newly eligible since the client's cursor (the full
// result set when Reset is true); the client unions them into its set.
// Gen and Watermark are the next request's ?gen and ?cursor.
type WatchUpdate struct {
	Gen       uint64 `json:"gen"`
	Watermark uint32 `json:"watermark"`
	Added     []int  `json:"added"`
	Reset     bool   `json:"reset,omitempty"`
}

// NodeHealth is one member's row in a router's /healthz.
type NodeHealth struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// Health is the /healthz payload: the process is alive (HTTP 200) as
// long as it answers; Status "degraded" plus the detail fields report
// partial failure.
type Health struct {
	Status            string       `json:"status"`
	QuarantinedShards int          `json:"quarantinedShards,omitempty"`
	ReadOnly          bool         `json:"readOnly,omitempty"`
	Nodes             []NodeHealth `json:"nodes,omitempty"`
}

// ErrorResponse is the v1 error envelope: every non-2xx response of a
// /v1/* endpoint (and /healthz's routing errors) carries it.  Code is
// from the closed vocabulary below — clients switch on it, never on the
// message text.  RetryAfter, when non-zero, duplicates the Retry-After
// header in seconds for clients that cannot reach headers.  The
// envelope is frozen as v1: codes may be added, fields never removed or
// renamed (docs/ARCHITECTURE.md §10.4).
type ErrorResponse struct {
	Code       string `json:"code"`
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfter,omitempty"`
}

// The v1 error codes.  Temporary() on APIError encodes which of these
// are worth retrying.
const (
	// CodeBadRequest: the request is malformed or semantically invalid;
	// resending it reproduces the failure.
	CodeBadRequest = "bad_request"
	// CodeUnknownTrajectory: the trajectory id is outside the store (or
	// a routed ingest hole); permanent for this id at this generation.
	CodeUnknownTrajectory = "unknown_trajectory"
	// CodeTooLarge: the request exceeds a size limit (body bytes or
	// batch length).
	CodeTooLarge = "too_large"
	// CodeShardQuarantined: the owning shard is failing fast after open
	// failures; retry after backoff.
	CodeShardQuarantined = "shard_quarantined"
	// CodeNodeQuarantined: the owning cluster member is unreachable and
	// quarantined by the router; retry after backoff.
	CodeNodeQuarantined = "node_quarantined"
	// CodeNodeDesynced: the router cannot prove the member's trajectory
	// numbering still matches its id maps (an ingest ack was lost, or a
	// flush failed after acknowledgement, leaving the fold outcome
	// unknown).  The member keeps serving already-mapped trajectories,
	// but routed ingest to it is refused until a count reconcile (or an
	// operator re-sync) clears the latch.  Do NOT blindly resubmit the
	// affected slice: its records may already be durable on the member.
	CodeNodeDesynced = "node_desynced"
	// CodeReadOnly: the write path latched read-only after a WAL
	// failure; reads keep working.
	CodeReadOnly = "read_only"
	// CodeBacklog: ingest admission shed the batch (pending limit);
	// nothing was acknowledged, retry after backoff.
	CodeBacklog = "backlog"
	// CodeTimeout: the query ran past the server's query deadline and
	// stopped there.
	CodeTimeout = "timeout"
	// CodeGenRetired: the pinned generation is older than the retention
	// window; re-query at the current generation, do not retry.
	CodeGenRetired = "gen_retired"
	// CodeGenUnknown: the pinned generation is beyond the current one.
	CodeGenUnknown = "gen_unknown"
	// CodeIngestDisabled: the server runs without a WAL; ingest is not
	// available here at all.
	CodeIngestDisabled = "ingest_disabled"
	// CodeNotLeader: this node is a replication follower; submit writes
	// to the leader.
	CodeNotLeader = "not_leader"
	// CodeWALTruncated: the requested replication position was
	// checkpointed away; the follower must re-snapshot.
	CodeWALTruncated = "wal_truncated"
	// CodeUnsupported: the endpoint exists but this deployment does not
	// serve it (e.g. watch subscriptions through the router).
	CodeUnsupported = "unsupported"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal = "internal"
)
