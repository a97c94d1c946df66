package core

import (
	"fmt"

	"utcq/internal/bitio"
	"utcq/internal/pddp"
	"utcq/internal/roadnet"
	"utcq/internal/traj"
)

// Options are the compression parameters of Table 7.
type Options struct {
	// NumPivots is the number of pivots used by reference selection
	// (paper default: 2 for DK, 1 for CD and HZ).
	NumPivots int
	// EtaD is the error bound for relative distances (default 1/128).
	EtaD float64
	// EtaP is the error bound for probabilities (default 1/512; 1/2048 for HZ).
	EtaP float64
	// Ts is the dataset's default sample interval in seconds.
	Ts int64

	// Parallelism bounds the worker pool used by Compress and DecodeAll:
	// 1 runs strictly serially (the paper's one-trajectory-at-a-time
	// memory shape, Fig 6), N uses N workers, and values below 1 use one
	// worker per CPU.  Output is byte-identical across all settings.  The
	// knob is runtime-only and is not persisted by Save/Load.
	Parallelism int

	// DisableReferential stores every instance as a reference (ablation:
	// isolates the gain of referential representation).
	DisableReferential bool

	// PlainJaccard replaces the Fine-grained Jaccard Distance with the
	// plain Jaccard similarity over factor sets (ablation: the measure the
	// paper improves upon, Section 4.3).
	PlainJaccard bool
}

// DefaultOptions returns the paper's default parameters for a dataset with
// the given sample interval.
func DefaultOptions(ts int64) Options {
	return Options{NumPivots: 1, EtaD: 1.0 / 128, EtaP: 1.0 / 512, Ts: ts}
}

// CompStats aggregates raw and compressed sizes per component, in bits.
// Hdr holds structural bits (record markers, counts) not attributable to a
// single component; it is part of the total but not of per-component ratios.
type CompStats struct {
	Raw  traj.ComponentBits
	Comp traj.ComponentBits
	Hdr  int64

	NumTrajectories int
	NumInstances    int
	NumReferences   int
}

// Add accumulates another stats value.
func (s *CompStats) Add(o CompStats) {
	s.Raw.Add(o.Raw)
	s.Comp.Add(o.Comp)
	s.Hdr += o.Hdr
	s.NumTrajectories += o.NumTrajectories
	s.NumInstances += o.NumInstances
	s.NumReferences += o.NumReferences
}

// CompTotal returns the total compressed size in bits.
func (s CompStats) CompTotal() int64 { return s.Comp.Total() + s.Hdr }

// TotalRatio returns the overall compression ratio.
func (s CompStats) TotalRatio() float64 { return ratio(s.Raw.Total(), s.CompTotal()) }

// RatioT returns the compression ratio of the time component; similarly for
// the other components.
func (s CompStats) RatioT() float64  { return ratio(s.Raw.T, s.Comp.T) }
func (s CompStats) RatioE() float64  { return ratio(s.Raw.E, s.Comp.E) }
func (s CompStats) RatioD() float64  { return ratio(s.Raw.D, s.Comp.D) }
func (s CompStats) RatioTF() float64 { return ratio(s.Raw.TF, s.Comp.TF) }
func (s CompStats) RatioP() float64  { return ratio(s.Raw.P, s.Comp.P) }

func ratio(raw, comp int64) float64 {
	if comp == 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}

// InstMeta is one instance's directory entry: its record's bit offset
// and the navigation fields the record head carries.  An instance is a
// reference iff RefOrig < 0.
type InstMeta struct {
	RefOrig int // original index of this non-reference's reference; -1 for refs
	Start   int // absolute bit offset of the record
	P       float64
}

// TrajRecord is one compressed uncertain trajectory: a single bit stream
// (time section followed by instance records, references first) plus the
// instance directory, read from the record heads, that partial
// decompression navigates by.
type TrajRecord struct {
	Bits      []byte
	BitLen    int
	NumPoints int

	// Insts is indexed by original instance position.
	Insts []InstMeta
}

// NumInstances returns the instance count.
func (tr *TrajRecord) NumInstances() int { return len(tr.Insts) }

// Reader returns a bit reader over the record positioned at pos.
func (tr *TrajRecord) Reader(pos int) (*bitio.Reader, error) {
	r := bitio.NewReaderBits(tr.Bits, tr.BitLen)
	if err := r.Seek(pos); err != nil {
		return nil, err
	}
	return r, nil
}

// ResetTimeCursor resumes timestamp decoding at a temporal-index entry,
// in a caller-owned cursor (allocation-free resumption for the query hot
// paths): startT is the timestamp with index startIdx, and pos is the bit
// position of the next deviation code (t.pos).
func (tr *TrajRecord) ResetTimeCursor(c *TimeCursor, ts int64, pos int, startT int64, startIdx int) error {
	c.r.Reset(tr.Bits, tr.BitLen)
	if err := c.r.Seek(pos); err != nil {
		return err
	}
	c.t, c.idx, c.n, c.ts = startT, startIdx, tr.NumPoints, ts
	return nil
}

// TimeCursorStart iterates timestamps from the beginning, reading t0 and
// the point count from the record's time header.
func (tr *TrajRecord) TimeCursorStart(ts int64) (*TimeCursor, error) {
	c := &TimeCursor{ts: ts}
	c.r.Reset(tr.Bits, tr.BitLen)
	var err error
	c.t, c.n, err = readTimeHeader(&c.r)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Archive is a compressed collection of uncertain trajectories over one
// road network.
type Archive struct {
	Opts       Options
	Graph      *roadnet.Graph
	VertexBits int
	EdgeBits   int
	DCodec     *pddp.Codec
	PCodec     *pddp.Codec
	Trajs      []*TrajRecord
	Stats      CompStats
}

// Compressor holds per-network encoding state.
type Compressor struct {
	g          *roadnet.Graph
	opts       Options
	vertexBits int
	edgeBits   int
	dCodec     *pddp.Codec
	pCodec     *pddp.Codec
}

// NewCompressor validates options against the network.
func NewCompressor(g *roadnet.Graph, opts Options) (*Compressor, error) {
	if opts.NumPivots < 1 {
		return nil, fmt.Errorf("core: NumPivots %d < 1", opts.NumPivots)
	}
	if opts.Ts < 1 {
		return nil, fmt.Errorf("core: default sample interval %d < 1", opts.Ts)
	}
	dc, err := pddp.NewCodec(opts.EtaD)
	if err != nil {
		return nil, fmt.Errorf("core: EtaD: %w", err)
	}
	pc, err := pddp.NewCodec(opts.EtaP)
	if err != nil {
		return nil, fmt.Errorf("core: EtaP: %w", err)
	}
	return &Compressor{
		g:          g,
		opts:       opts,
		vertexBits: bitio.WidthFor(g.NumVertices() - 1),
		edgeBits:   bitio.WidthFor(g.MaxOutDegree()),
		dCodec:     dc,
		pCodec:     pc,
	}, nil
}
