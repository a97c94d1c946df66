package main

import (
	"math/rand"
	"time"

	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/traj"
)

// Workload sizes at -scale 1.  They were calibrated once on the 2-core
// sandbox so that one run (three set-ups, the timed phase, verification)
// ends inside the driver's per-run share of its time cap, then frozen:
// changing one changes what every later record is compared against.
const (
	// Trajectories of the node corpus (CD, ~3 instances each): 4 shards ×
	// 4096 engine cache entries hold every (trajectory, instance) path,
	// so the working set fits the engine caches.
	nodeCorpusTrajs = 4000
	// Trajectories of the embedded corpus (HZ, ~16 instances each): about
	// six times the 16384 path entries the four engines may cache.
	embeddedCorpusTrajs = 6000
	// Trajectories per profile of the bulk corpus (DK + CD + HZ).
	bulkCorpusTrajs = 1200

	storeShards    = 4
	clusterMembers = 3

	// Matchable raw trajectories a writer cycles through, and how many go
	// into one /v1/ingest request.
	writePoolTrajs = 2048
	ingestBatch    = 16
	// CompactEvery of every ingester: the production default.
	compactEvery = 8

	// Ops each reader sends untimed before the clock starts.
	warmOps = 1000
	// Ops of a read stream checked against the uncompressed oracle.
	oracleOps = 500
	// Probe queries compared byte for byte across reopen / across
	// deployments, and the write batches the reference node replays.
	probeQueries     = 200
	referenceBatches = 24
	// Batches after which a writer sums the bytes on disk, so that
	// stored_bytes_per_traj is taken at the same store state every run.
	storedBytesAtBatch = 48
	// Cold Open + first-range-on-every-shard cycles behind cold_open_ms.
	coldOpenCycles = 50
	// Compress + DecodeAll passes behind the codec metrics of the
	// workloads that serve.
	codecPasses = 21
	// Repetitions of the set-up whose median is setup_s.
	setupReps = 3

	// The serial traced replay: read ops and write batches per ladder depth.
	// The batch count is a multiple of compactEvery, so that compactions
	// fall on the same batches at every depth.
	traceReadOps      = 2000
	traceWriteBatches = 96

	// Share of where/when ops that, on a store that is being written to,
	// are aimed at an already acknowledged ingested trajectory.
	recentShare = 0.2
)

// workloadSpec is one named workload: what it runs and why it exists.
type workloadSpec struct {
	name string
	why  string
	run  func(*runCtx) (*result, error)
}

// The five workloads.  The names are identifiers later issues use.
var workloads = []workloadSpec{
	{"node-read", "read mix over one HTTP node, working set fits the engine caches: server + client + JSON are nearly all of a request, so an HTTP change shows here and an engine change must not", runNodeRead},
	{"embedded-range", "store.Range called directly on a corpus larger than the engine caches: query, stiu, core views and mmapio do all the work, so an engine change shows here and an HTTP change must not", runEmbeddedRange},
	{"node-ingest", "one writer posting flushed batches beside one reader on the same node: mapmatch, compress, index build, delta apply, compaction and WAL fsync dominate; a read change that taxes writes shows here", runNodeIngest},
	{"cluster-mix", "the node-ingest streams sent to a router over three members: every metric minus its node-ingest value is the cost of the cluster layer", runClusterMix},
	{"bulk-archive", "offline library path over DK, CD and HZ: compress, index, save, cold open, query the archive, decode; space, build cost and read cost side by side", runBulkArchive},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opKind is the kind of a read op.
type opKind uint8

const (
	opWhere opKind = iota
	opWhen
	opRange
	numOpKinds
)

var opKindNames = [numOpKinds]string{"where", "when", "range"}

// readOp is one query of a read stream, a pure function of the seed.
type readOp struct {
	kind  opKind
	traj  int
	t     int64
	loc   roadnet.Position
	rect  roadnet.Rect
	alpha float64
	// recent, when non-zero, re-aims a where/when op at ingested
	// trajectory base+recent%acked once a writer has acknowledged any.
	recent uint32
	tFrac  float64 // position of t inside the trajectory's span
	inst   int     // instance whose path loc lies on
	edgeNo int     // index into that path
	rd     float64 // relative distance along the edge
}

// readMix is the composition of a read stream.
type readMix struct {
	where, when float64 // shares; the rest are range ops
	// anchored is the share of range ops centred on a random trajectory
	// at a time inside its span (partial decompression does the work);
	// the others are a random rectangle at a random time (pruning does).
	anchored float64
	// rectMin/rectMax bound the rectangle side as a share of each axis.
	rectMin, rectMax float64
}

// loadgenMix is cmd/utcq loadgen's mix: half where, a quarter when, a
// quarter range over 5-40 % of each axis at a time drawn from the whole
// time span.
var loadgenMix = readMix{where: 0.5, when: 0.25, anchored: 0, rectMin: 0.05, rectMax: 0.40}

// embeddedMix is range-dominated: half uniform (Lemma 4 and the succinct
// occupancy vectors reject almost everything), half anchored (the
// rectangle holds trajectories, so paths are partially decompressed).
// The tenth of where and of when ops keep those latencies reported on
// the path that has no HTTP in it.
var embeddedMix = readMix{where: 0.1, when: 0.1, anchored: 0.5, rectMin: 0.05, rectMax: 0.40}

// corpus is everything generated from the seed for one profile: the
// uncompressed trajectories the store is built from, their edge paths
// (when-queries ask about a location on one), and for writing workloads
// the pool of raw trajectories with their matched form.
type corpus struct {
	profile gen.Profile
	g       *roadnet.Graph
	eix     *roadnet.EdgeIndex
	trajs   []*traj.Uncertain
	bounds  roadnet.Rect
	tmin    int64
	tmax    int64

	raws    []traj.RawTrajectory
	matched []*traj.Uncertain // matched[i] is what the ingester makes of raws[i]

	genDur    time.Duration // gen.Build alone
	rawsTried int           // raw trajectories put to the matcher to fill the pool
	matchDur  time.Duration // matching them, one after the other
}

// opStream yields the read ops of one client.  Streams of different
// clients differ in their seed only.
type opStream struct {
	c   *corpus
	mix readMix
	rng *rand.Rand
}

func newOpStream(c *corpus, mix readMix, seed int64) *opStream {
	return &opStream{c: c, mix: mix, rng: rand.New(rand.NewSource(seed))}
}

var (
	whereAlphas = []float64{0, 0.1, 0.3}
	whenAlphas  = []float64{0, 0.05, 0.2}
	rangeAlphas = []float64{0.2, 0.5, 0.8}
)

func (s *opStream) next() readOp {
	c, rng := s.c, s.rng
	k := rng.Float64()
	switch {
	case k < s.mix.where:
		op := readOp{kind: opWhere, traj: rng.Intn(len(c.trajs)), tFrac: rng.Float64(),
			alpha: whereAlphas[rng.Intn(len(whereAlphas))]}
		op.t = timeIn(c.trajs[op.traj], op.tFrac)
		if rng.Float64() < recentShare {
			op.recent = 1 + rng.Uint32()>>1
		}
		return op
	case k < s.mix.where+s.mix.when:
		op := readOp{kind: opWhen, alpha: whenAlphas[rng.Intn(len(whenAlphas))]}
		for ok := false; !ok; {
			op.traj, op.inst, op.edgeNo, op.rd = rng.Intn(len(c.trajs)), rng.Int(), rng.Int(), rng.Float64()
			op.loc, ok = locOn(c.g, c.trajs[op.traj], op.inst, op.edgeNo, op.rd)
		}
		if rng.Float64() < recentShare {
			op.recent = 1 + rng.Uint32()>>1
		}
		return op
	}
	op := readOp{kind: opRange, alpha: rangeAlphas[rng.Intn(len(rangeAlphas))]}
	b := c.bounds
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	fw := s.mix.rectMin + rng.Float64()*(s.mix.rectMax-s.mix.rectMin)
	fh := s.mix.rectMin + rng.Float64()*(s.mix.rectMax-s.mix.rectMin)
	if rng.Float64() < s.mix.anchored {
		// Centre on where the first instance is at one of its own
		// timestamps, so the rectangle always holds a candidate.
		u := c.trajs[rng.Intn(len(c.trajs))]
		locs, err := u.Instances[0].Locations(c.g, u.T)
		if err != nil {
			panic("bench: matched instance does not decode: " + err.Error())
		}
		at := locs[rng.Intn(len(locs))]
		op.t = at.T
		x, y := c.g.Coords(at.Pos)
		op.rect = roadnet.Rect{MinX: x - fw*w/2, MinY: y - fh*h/2, MaxX: x + fw*w/2, MaxY: y + fh*h/2}
		return op
	}
	op.t = c.tmin + rng.Int63n(c.tmax-c.tmin+1)
	x := b.MinX + rng.Float64()*(1-fw)*w
	y := b.MinY + rng.Float64()*(1-fh)*h
	op.rect = roadnet.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}
	return op
}

// take returns the next n ops of the stream.
func (s *opStream) take(n int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// retarget aims a recent-flagged op at ingested trajectory number
// op.recent % acked.  Ingested trajectories are the write pool in order
// (no raw of the pool is dropped), so the pool entry — and with it a
// valid time and location — follows from the id alone.
func (c *corpus) retarget(op *readOp, acked int) {
	if op.recent == 0 || acked == 0 {
		return
	}
	k := int(op.recent) % acked
	u := c.matched[k%len(c.matched)]
	switch op.kind {
	case opWhere:
		op.traj, op.t = len(c.trajs)+k, timeIn(u, op.tFrac)
	case opWhen:
		if loc, ok := locOn(c.g, u, op.inst, op.edgeNo, op.rd); ok {
			op.traj, op.loc = len(c.trajs)+k, loc
		}
	}
}

func timeIn(u *traj.Uncertain, frac float64) int64 {
	t0, t1 := u.T[0], u.T[len(u.T)-1]
	return t0 + int64(frac*float64(t1-t0))
}

// locOn returns the location at relative distance rd on one of the inner
// edges of the path of instance inst (modulo the instance count).  Inner
// edges are traversed from end to end; the first and last are not, and a
// location within the distance quantum of where the trajectory starts or
// stops is one the lossy encoding may put on either side.  ok is false
// when the path has no inner edge.
func locOn(g *roadnet.Graph, u *traj.Uncertain, inst, edgeNo int, rd float64) (roadnet.Position, bool) {
	path, err := u.Instances[inst%len(u.Instances)].PathEdges(g)
	if err != nil {
		panic("bench: matched instance does not decode: " + err.Error())
	}
	if len(path) < 3 {
		return roadnet.Position{}, false
	}
	return g.PositionAtRD(path[1+edgeNo%(len(path)-2)], rd), true
}
