package server

import (
	"context"
	"fmt"
	"sync/atomic"

	"utcq/internal/ingest"
	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// node is the Backend over one store and its optional ingester.
type node struct {
	st         *store.Store
	ing        *ingest.Ingester
	maxPending int
	follower   bool

	rejected atomic.Int64 // ingest admission rejections (429)
}

// snapReader answers queries against one store snapshot.
type snapReader struct {
	sn store.Snapshot
	g  *roadnet.Graph
}

func (n *node) Reader(gen uint64) (Reader, error) {
	if gen == 0 {
		return &snapReader{n.st.Snapshot(), n.st.Graph()}, nil
	}
	sn, err := n.st.SnapshotAt(gen)
	if err != nil {
		return nil, err
	}
	return &snapReader{sn, n.st.Graph()}, nil
}

func (r *snapReader) Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error) {
	rs, err := r.sn.Where(ctx, req.Traj, req.T, req.Alpha)
	if err != nil {
		return nil, err
	}
	out := make([]client.WhereResult, len(rs))
	for i, res := range rs {
		x, y := r.g.Coords(res.Loc)
		out[i] = client.WhereResult{
			Inst: res.Inst, P: res.P,
			Edge: int(res.Loc.Edge), NDist: res.Loc.NDist,
			X: x, Y: y,
		}
	}
	return out, nil
}

func (r *snapReader) When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error) {
	if n := r.g.NumEdges(); req.Loc.Edge < 0 || req.Loc.Edge >= n {
		return nil, fmt.Errorf("%w: edge %d outside [0, %d)", errBadInput, req.Loc.Edge, n)
	}
	loc := roadnet.Position{Edge: roadnet.EdgeID(req.Loc.Edge), NDist: req.Loc.NDist}
	rs, err := r.sn.When(ctx, req.Traj, loc, req.Alpha)
	if err != nil {
		return nil, err
	}
	out := make([]client.WhenResult, len(rs))
	for i, res := range rs {
		out[i] = client.WhenResult{Inst: res.Inst, P: res.P, T: res.T}
	}
	return out, nil
}

// Range evaluates a range query over every healthy shard.  Live shards
// that could not be consulted because they are quarantined after open
// failures are counted in ShardsSkipped and flag the result degraded.
func (r *snapReader) Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error) {
	re := roadnet.Rect{MinX: req.Rect.MinX, MinY: req.Rect.MinY, MaxX: req.Rect.MaxX, MaxY: req.Rect.MaxY}
	trajs, skipped, err := r.sn.RangeDegraded(ctx, re, req.T, req.Alpha)
	if err != nil {
		return client.RangeResult{}, err
	}
	if trajs == nil {
		trajs = []int{}
	}
	return client.RangeResult{Trajs: trajs, Degraded: skipped > 0, ShardsSkipped: skipped}, nil
}

// Ingest acknowledges raw trajectories.  The whole batch is validated
// before anything touches the WAL, then appended and fsynced under one
// group commit (SubmitBatch), so the request is atomic from the client's
// view: a 400 means nothing was acknowledged, a 200 means the entire
// batch survives a crash.
func (n *node) Ingest(_ context.Context, req client.IngestRequest) (client.IngestResponse, error) {
	if n.ing == nil {
		return client.IngestResponse{}, fmt.Errorf("%w: utcqd started without -wal", errIngestDisabled)
	}
	if n.follower {
		return client.IngestResponse{}, fmt.Errorf("%w: this node is a replication follower; submit writes to the leader", errNotLeader)
	}
	// Bounded admission: past the pending limit the WAL keeps growing
	// faster than the drain empties it, so shed load here — the batch was
	// not acknowledged and the client retries after backoff.
	if limit := n.maxPending; limit > 0 {
		if pending := n.ing.Pending(); pending >= limit {
			n.rejected.Add(1)
			return client.IngestResponse{}, fmt.Errorf("%w: %d acknowledged records pending (limit %d)", errBacklog, pending, limit)
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
	// ErrRejected is the client's mistake (400); ErrReadOnly is the WAL
	// failure latch — reads keep working, writes answer 503 until the
	// operator intervenes.
	first, err := n.ing.SubmitBatch(raws)
	if err != nil {
		return client.IngestResponse{}, err
	}
	resp := client.IngestResponse{Accepted: len(raws), FirstSeq: first}
	if req.Flush {
		gen, err := n.ing.Flush()
		if err != nil {
			// The batch IS durably acknowledged — only the synchronous
			// application failed; it will drain later.  A plain 500 would
			// invite a resubmit and duplicate the records, so report the
			// acknowledgement with the flush failure in-band (202).
			resp.Generation = n.st.Generation()
			resp.Pending = uint64(n.ing.Pending())
			resp.FlushError = err.Error()
			return resp, nil
		}
		resp.Generation = gen
		// The batch has folded; report which records the matcher dropped
		// so sequence-to-id mapping callers (the cluster router) can
		// account for the ids that were never created, and the post-flush
		// trajectory count so those callers can verify their id maps
		// before committing an assignment.
		for _, seq := range n.ing.DroppedIn(first, first+uint64(len(raws))) {
			resp.Dropped = append(resp.Dropped, int(seq-first))
		}
		resp.Trajectories = n.st.NumTrajectories()
	} else {
		resp.Generation = n.st.Generation()
	}
	resp.Pending = uint64(n.ing.Pending())
	return resp, nil
}

// Compact drains pending ingestion and folds the live delta shards into
// a base shard.  Without an ingester the store compacts directly (useful
// after offline bulk loads).
func (n *node) Compact(context.Context) (client.CompactResponse, error) {
	var folded int
	var err error
	if n.ing != nil {
		folded, err = n.ing.Compact()
	} else {
		folded, err = n.st.Compact()
	}
	if err != nil {
		return client.CompactResponse{}, err
	}
	return client.CompactResponse{Folded: folded, Generation: n.st.Generation()}, nil
}

// Health reports "degraded" with the reasons — quarantined shards, a
// read-only write path.
func (n *node) Health(context.Context) client.Health {
	resp := client.Health{Status: "ok"}
	if q := n.st.QuarantinedShards(); q > 0 {
		resp.Status = "degraded"
		resp.QuarantinedShards = q
	}
	if n.ing != nil && n.ing.ReadOnly() != nil {
		resp.Status = "degraded"
		resp.ReadOnly = true
	}
	return resp
}

func (n *node) Stats(context.Context) client.StatsResponse {
	st := n.st.Stats()
	b := n.st.Bounds()
	db := n.st.DataBounds()
	resp := client.StatsResponse{
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
		Bounds:            client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY},
		DataBounds:        client.Rect{MinX: db.MinX, MinY: db.MinY, MaxX: db.MaxX, MaxY: db.MaxY},
		Engine:            client.EngineStats(st.Engine),
		Succinct:          client.SuccinctStats(st.Succinct),
		SidecarLoads:      st.SidecarLoads,
		SidecarRebuilds:   st.SidecarRebuilds,
		MappedBytes:       st.MappedBytes,
		RSSBytes:          st.RSSBytes,
		QuarantinedShards: st.QuarantinedShards,
		ShardOpenFailures: st.ShardOpenFailures,
		Rejected:          n.rejected.Load(),
	}
	if n.ing != nil {
		is := n.ing.Stats()
		resp.Ingest = &client.IngestStats{
			Acked:        is.Acked,
			Applied:      is.Applied,
			Pending:      is.Pending,
			PendingLimit: max(n.maxPending, 0),
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
	return resp
}
