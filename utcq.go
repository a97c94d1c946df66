// Package utcq is a Go implementation of "Compression of Uncertain
// Trajectories in Road Networks" (Li, Huang, Chen, Jensen, Pedersen;
// PVLDB 13(7), 2020): the UTCQ framework for compressing network-
// constrained uncertain trajectories and answering probabilistic where,
// when and range queries directly on the compressed data.
//
// The package is a facade over the implementation packages:
//
//   - road networks, grids and shortest paths (roadnet),
//   - trajectory modelling and probabilistic map matching (traj, mapmatch),
//   - synthetic DK/CD/HZ-style datasets (gen),
//   - the UTCQ representor/compressor with referential representation,
//     SIAR and reference selection (core),
//   - the StIU index (stiu) and the query processor (query),
//   - the sharded multi-archive store (store) and its HTTP query
//     service (server), fronted by cmd/utcqd,
//   - the TED baseline (ted) and the experiment harness (exp).
//
// Quick start:
//
//	ds, _ := utcq.BuildDataset(utcq.ProfileCD(), 500, 1)
//	arch, _ := utcq.Compress(ds.Graph, ds.Trajectories, utcq.DefaultOptions(ds.Profile.Ts))
//	idx, _ := utcq.BuildIndex(arch, utcq.DefaultIndexOptions())
//	eng := utcq.NewEngine(arch, idx)
//	results, _ := eng.Where(0, ds.Trajectories[0].T[0]+30, 0.25)
package utcq

import (
	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/server"
	"utcq/internal/simplify"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/ted"
	"utcq/internal/traj"
)

// Road network types.
type (
	// Graph is a directed road network with per-vertex ordered out-edges.
	Graph = roadnet.Graph
	// GraphBuilder accumulates vertices and edges.
	GraphBuilder = roadnet.Builder
	// VertexID identifies a road-network vertex.
	VertexID = roadnet.VertexID
	// EdgeID identifies a directed edge.
	EdgeID = roadnet.EdgeID
	// Position is a network-constrained location on an edge.
	Position = roadnet.Position
	// Rect is an axis-aligned query rectangle.
	Rect = roadnet.Rect
	// NetworkGenConfig controls synthetic road-network generation.
	NetworkGenConfig = roadnet.GenConfig
	// EdgeIndex is a spatial index over a network's edges (nearest-edge
	// lookups for map matching).
	EdgeIndex = roadnet.EdgeIndex
)

// Trajectory types.
type (
	// RawPoint is one GPS fix (x, y, t).
	RawPoint = traj.RawPoint
	// RawTrajectory is a sequence of raw GPS fixes.
	RawTrajectory = traj.RawTrajectory
	// Instance is one network-constrained trajectory instance in the
	// improved TED representation (SV, E, D, T', p).
	Instance = traj.Instance
	// Uncertain is a network-constrained uncertain trajectory.
	Uncertain = traj.Uncertain
	// MappedLocation is a network location with a timestamp.
	MappedLocation = traj.MappedLocation
)

// Compression types.
type (
	// Options are the UTCQ compression parameters (pivots, ηD, ηp, Ts),
	// plus the Parallelism knob bounding the worker pools of Compress and
	// Decompress (1 = serial, N = N workers, <1 = one per CPU; output is
	// byte-identical across all settings).
	Options = core.Options
	// Archive is a compressed collection of uncertain trajectories.
	Archive = core.Archive
	// CompStats carries raw/compressed sizes per component.
	CompStats = core.CompStats
	// IndexOptions control StIU granularity.
	IndexOptions = stiu.Options
	// Index is the StIU spatio-temporal index.
	Index = stiu.Index
	// Engine answers probabilistic queries over compressed data.  It is
	// safe for concurrent use: one shared engine serves many goroutines
	// and keeps no decoded state between queries.
	Engine = query.Engine
	// EngineStats is a snapshot of the engine's work counters.
	EngineStats = query.EngineStats
	// WhereResult is one instance's location at a query time.
	WhereResult = query.WhereResult
	// WhenResult is one instance's passage time at a query location.
	WhenResult = query.WhenResult
	// Oracle answers the same queries on uncompressed data.
	Oracle = query.Oracle
)

// Sharded store and serving types.
type (
	// Store is a sharded multi-archive trajectory store: N independently
	// compressed and indexed shards behind one query surface, with
	// scatter-gather range queries.  Safe for concurrent use.
	Store = store.Store
	// StoreOptions configure a store build (shard count, assignment,
	// compression, index granularity).
	StoreOptions = store.Options
	// OpenStoreOptions configure a store opened lazily from disk.
	OpenStoreOptions = store.OpenOptions
	// StoreStats aggregates the engine counters of every open shard.
	StoreStats = store.Stats
	// ShardAssignment selects how trajectories map to shards.
	ShardAssignment = store.Assignment
	// QueryServer serves a store over HTTP/JSON (see internal/server and
	// the README "Serving" section for the endpoint reference).
	QueryServer = server.Server
	// QueryServerOptions configure the HTTP service.
	QueryServerOptions = server.Options
)

// Shard assignment modes.
const (
	// AssignHash spreads trajectories uniformly by hashed id.
	AssignHash = store.AssignHash
	// AssignSpatial co-locates spatially nearby trajectories.
	AssignSpatial = store.AssignSpatial
)

// DefaultStoreOptions returns a 4-shard hash-assigned store configuration
// with the paper's default compression and index parameters.
func DefaultStoreOptions(ts int64) StoreOptions { return store.DefaultOptions(ts) }

// BuildStore compresses and indexes the trajectories into a sharded
// in-memory store; shards build in parallel and the result is identical
// across all parallelism settings.  Persist it with Store.Save.
func BuildStore(g *Graph, tus []*Uncertain, opts StoreOptions) (*Store, error) {
	return store.Build(g, tus, opts)
}

// OpenStore opens a store directory written by Store.Save, attaching the
// road network.  Only the manifest is read up front; each shard loads on
// the first query that touches it (set opts.Eager to load everything now).
func OpenStore(dir string, g *Graph, opts OpenStoreOptions) (*Store, error) {
	return store.Open(dir, g, opts)
}

// NewQueryServer returns an HTTP query service over a store.
func NewQueryServer(st *Store, opts QueryServerOptions) *QueryServer {
	return server.New(st, opts)
}

// Live ingestion types (see internal/ingest).
type (
	// Ingester is the live write path: Submit acknowledges raw
	// trajectories into a CRC-framed write-ahead log; a background worker
	// map-matches and compresses them into delta shards of a mutable
	// store, compacting deltas into base shards past a threshold.
	Ingester = ingest.Ingester
	// IngestOptions configure batching, matching, durability and the
	// compaction threshold.
	IngestOptions = ingest.Options
	// IngestStats is a snapshot of the ingestion pipeline's counters.
	IngestStats = ingest.Stats
	// WAL is the append-only log of raw trajectories with crash-recovery
	// replay.
	WAL = ingest.WAL
	// WALRecord is one replayed WAL entry: the raw trajectory and the
	// simplification error budget (SED ε) it was admitted under.
	WALRecord = ingest.Record
)

// NewIngester opens (or creates) the WAL at walPath and attaches it to the
// store; acknowledged-but-unapplied records are queued for the next drain
// (crash recovery).  The edge index must be built over the store's road
// network (NewEdgeIndex).
func NewIngester(st *Store, ix *EdgeIndex, walPath string, opts IngestOptions) (*Ingester, error) {
	return ingest.New(st, ix, walPath, opts)
}

// NewEdgeIndex builds a spatial edge index with the given cell size in
// meters (used by map matching and ingestion).
func NewEdgeIndex(g *Graph, cellSize float64) *EdgeIndex {
	return roadnet.NewEdgeIndex(g, cellSize)
}

// OpenWAL opens (or creates) a write-ahead log, replaying and returning
// every intact record; a torn tail from a crash mid-append is truncated.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	return ingest.OpenWAL(path)
}

// Simplify reduces a raw trajectory under the SED error budget eps (map
// units): every dropped point is within eps of the moving position
// interpolated between the kept points bracketing it at its own
// timestamp.  eps <= 0 returns the input unchanged.  This is the same
// reduction IngestOptions.SimplifyEps applies at submission.
func Simplify(raw RawTrajectory, eps float64) RawTrajectory {
	return simplify.Trajectory(raw, eps)
}

// GenerateRaws synthesizes a road network and raw (pre-match) GPS
// trajectories for a profile — the fleet feed for ingestion demos and
// load generation (numRaw 0 uses the profile default).
func GenerateRaws(p Profile, numRaw int, seed int64) (*Graph, *EdgeIndex, []RawTrajectory, error) {
	return gen.Raws(p, numRaw, seed)
}

// Dataset generation and matching types.
type (
	// Profile describes a synthetic dataset family (DK, CD or HZ).
	Profile = gen.Profile
	// Dataset is a generated collection of uncertain trajectories.
	Dataset = gen.Dataset
	// Matcher is the probabilistic HMM map matcher.
	Matcher = mapmatch.Matcher
	// MatchConfig controls probabilistic map matching.
	MatchConfig = mapmatch.Config
)

// TED baseline types.
type (
	// TEDOptions are the baseline's parameters.
	TEDOptions = ted.Options
	// TEDArchive is a TED-compressed dataset.
	TEDArchive = ted.Archive
	// TEDEngine answers queries over the TED baseline.
	TEDEngine = query.TEDEngine
)

// NewGraphBuilder returns an empty road-network builder.
func NewGraphBuilder() *GraphBuilder { return roadnet.NewBuilder() }

// GenerateNetwork builds a synthetic road network.
func GenerateNetwork(cfg NetworkGenConfig) *Graph { return roadnet.Generate(cfg) }

// ProfileDK returns the Denmark-like dataset profile (1 s sampling).
func ProfileDK() Profile { return gen.DK() }

// ProfileCD returns the Chengdu-like dataset profile (10 s sampling).
func ProfileCD() Profile { return gen.CD() }

// ProfileHZ returns the Hangzhou-like dataset profile (20 s sampling).
func ProfileHZ() Profile { return gen.HZ() }

// BuildDataset synthesizes an uncertain-trajectory dataset: routes, noisy
// GPS, and probabilistic map matching (numTraj 0 uses the profile default).
func BuildDataset(p Profile, numTraj int, seed int64) (*Dataset, error) {
	return gen.Build(p, numTraj, seed)
}

// DefaultOptions returns the paper's default compression parameters for a
// dataset with the given default sample interval.
func DefaultOptions(ts int64) Options { return core.DefaultOptions(ts) }

// Compress encodes uncertain trajectories with UTCQ: improved TED
// representation, SIAR temporal encoding, reference selection and
// referential compression.
func Compress(g *Graph, tus []*Uncertain, opts Options) (*Archive, error) {
	c, err := core.NewCompressor(g, opts)
	if err != nil {
		return nil, err
	}
	return c.Compress(tus)
}

// Decompress fully decodes an archive.  Relative distances and
// probabilities are within their error bounds; everything else is exact.
func Decompress(a *Archive) ([]*Uncertain, error) { return a.DecodeAll() }

// DefaultIndexOptions returns the paper's default StIU granularity
// (64×64 grid, 30-minute intervals).
func DefaultIndexOptions() IndexOptions { return stiu.DefaultOptions() }

// BuildIndex constructs the StIU index over an archive.
func BuildIndex(a *Archive, opts IndexOptions) (*Index, error) { return stiu.Build(a, opts) }

// NewEngine returns a query engine over an archive and its index.  The
// engine is safe for concurrent use.
func NewEngine(a *Archive, ix *Index) *Engine { return query.NewEngine(a, ix) }

// NewOracle returns a query processor over uncompressed trajectories.
func NewOracle(g *Graph, tus []*Uncertain) *Oracle { return query.NewOracle(g, tus) }

// NewMatcher returns a probabilistic map matcher for the network.
func NewMatcher(g *Graph, cfg MatchConfig) *Matcher {
	return mapmatch.New(g, roadnet.NewEdgeIndex(g, 500), cfg)
}

// DefaultMatchConfig returns the matcher defaults.
func DefaultMatchConfig() MatchConfig { return mapmatch.DefaultConfig() }

// CompressTED encodes the dataset with the adapted TED baseline.
func CompressTED(g *Graph, tus []*Uncertain, opts TEDOptions) (*TEDArchive, error) {
	c, err := ted.NewCompressor(g, opts)
	if err != nil {
		return nil, err
	}
	return c.Compress(tus)
}

// DefaultTEDOptions mirrors DefaultOptions for the baseline.
func DefaultTEDOptions(ts int64) TEDOptions { return ted.DefaultOptions(ts) }
