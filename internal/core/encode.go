package core

import (
	"fmt"

	"utcq/internal/bitio"
	"utcq/internal/par"
	"utcq/internal/pddp"
	"utcq/internal/traj"
)

// Compress encodes a dataset trajectory by trajectory over a bounded
// worker pool (Options.Parallelism workers).  Per-trajectory work is
// independent, so each worker preserves UTCQ's one-uncompressed-trajectory
// memory shape (Fig 6) while throughput scales with cores.  Records land
// in input order and stats aggregate in input order, so the archive is
// byte-identical to a serial run; on failure the error of the earliest
// failing trajectory is returned, as in the serial loop.
func (c *Compressor) Compress(tus []*traj.Uncertain) (*Archive, error) {
	a := &Archive{
		Opts:       c.opts,
		Graph:      c.g,
		VertexBits: c.vertexBits,
		EdgeBits:   c.edgeBits,
		DCodec:     c.dCodec,
		PCodec:     c.pCodec,
	}
	recs := make([]*TrajRecord, len(tus))
	stats := make([]CompStats, len(tus))
	err := par.Do(par.Workers(c.opts.Parallelism), len(tus), func(j int) error {
		rec, st, err := c.CompressOne(tus[j])
		if err != nil {
			return fmt.Errorf("core: trajectory %d: %w", j, err)
		}
		recs[j], stats[j] = rec, st
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.Trajs = recs
	for j := range stats {
		a.Stats.Add(stats[j])
	}
	return a, nil
}

// CompressOne encodes a single uncertain trajectory.
func (c *Compressor) CompressOne(u *traj.Uncertain) (*TrajRecord, CompStats, error) {
	var stats CompStats
	if err := checkT0(u.T); err != nil {
		return nil, stats, err
	}
	stats.Raw = u.RawBits()
	stats.NumTrajectories = 1
	stats.NumInstances = len(u.Instances)

	w := bitio.NewWriter(256)
	rec := &TrajRecord{
		NumPoints: len(u.T),
		Insts:     make([]InstMeta, len(u.Instances)),
	}

	// Time section (shared by all instances).
	mark := w.Len()
	encodeT(w, u.T, c.opts.Ts)
	stats.Comp.T += int64(w.Len() - mark)

	// Reference selection.
	var sel Selection
	switch {
	case c.opts.DisableReferential:
		sel = allReferences(len(u.Instances))
	case c.opts.PlainJaccard:
		sel = selectReferencesWith(u, c.opts.NumPivots, plainJaccard)
	default:
		sel = SelectReferences(u, c.opts.NumPivots)
	}
	stats.NumReferences = sel.NumRefs()

	// References first, then non-references.
	refWritePos := make(map[int]int) // orig index -> write order
	for orig := range u.Instances {
		if sel.RefOf[orig] >= 0 {
			continue
		}
		refWritePos[orig] = len(refWritePos)
		rec.Insts[orig] = InstMeta{
			RefOrig: -1,
			Start:   w.Len(),
			P:       c.pCodec.Quantize(u.Instances[orig].P),
		}
		c.encodeRef(w, &u.Instances[orig], len(u.T), orig, &stats)
	}
	// Factorization indexes, built once per reference and shared by all of
	// its non-references.
	refIx := make(map[int]*refIndexes)
	for orig := range u.Instances {
		refOrig := sel.RefOf[orig]
		if refOrig < 0 {
			continue
		}
		ix := refIx[refOrig]
		if ix == nil {
			ref := &u.Instances[refOrig]
			stored := StoredTF(ref.TF)
			dq := make([]float64, len(ref.D))
			for i, rd := range ref.D {
				dq[i] = c.dCodec.Quantize(rd)
			}
			ix = &refIndexes{
				e:        NewRefIndex(ref.E),
				tf:       NewTFIndex(stored),
				tfStored: stored,
				dQuant:   dq,
			}
			refIx[refOrig] = ix
		}
		rec.Insts[orig] = InstMeta{
			RefOrig: refOrig,
			Start:   w.Len(),
			P:       c.pCodec.Quantize(u.Instances[orig].P),
		}
		if err := c.encodeNonRef(w, u, orig, refOrig, refWritePos[refOrig], ix, &stats); err != nil {
			return nil, stats, err
		}
	}

	rec.Bits = w.Bytes()
	rec.BitLen = w.Len()
	return rec, stats, nil
}

// encodeRef writes a reference record:
//
//	[origIdx γ][isRef=1][p PDDP][SV][|E| γ][E entries][stored T' bits][D codes]
func (c *Compressor) encodeRef(w *bitio.Writer, ins *traj.Instance, numPoints, orig int, stats *CompStats) {
	mark := w.Len()
	w.WriteCount(orig)
	w.WriteBit(1)
	stats.Hdr += int64(w.Len() - mark)

	mark = w.Len()
	c.pCodec.Encode(w, ins.P)
	stats.Comp.P += int64(w.Len() - mark)

	mark = w.Len()
	w.WriteBits(uint64(ins.SV), c.vertexBits)
	w.WriteCount(len(ins.E))
	for _, no := range ins.E {
		w.WriteBits(uint64(no), c.edgeBits)
	}
	stats.Comp.E += int64(w.Len() - mark)

	mark = w.Len()
	for _, b := range StoredTF(ins.TF) {
		w.WriteBool(b)
	}
	stats.Comp.TF += int64(w.Len() - mark)

	mark = w.Len()
	for _, rd := range ins.D {
		c.dCodec.Encode(w, rd)
	}
	stats.Comp.D += int64(w.Len() - mark)
	_ = numPoints
}

// refIndexes groups the per-reference factorization state shared by all
// non-references of one reference.
type refIndexes struct {
	e        *RefIndex
	tf       *TFIndex
	tfStored []bool
	dQuant   []float64 // quantized reference distances, computed once
}

// encodeNonRef writes a non-reference record:
//
//	[origIdx γ][isRef=0][p PDDP][refPos γ]
//	[H γ][lastHasM][E factors]
//	[tfSame][H' γ][lastHasM][T' factors]
//	[numD γ][D factors]
func (c *Compressor) encodeNonRef(w *bitio.Writer, u *traj.Uncertain, orig, refOrig, refPos int, ix *refIndexes, stats *CompStats) error {
	ins := &u.Instances[orig]
	ref := &u.Instances[refOrig]

	mark := w.Len()
	w.WriteCount(orig)
	w.WriteBit(0)
	stats.Hdr += int64(w.Len() - mark)

	mark = w.Len()
	c.pCodec.Encode(w, ins.P)
	stats.Comp.P += int64(w.Len() - mark)

	mark = w.Len()
	w.WriteCount(refPos)
	stats.Hdr += int64(w.Len() - mark)

	// E factors.
	mark = w.Len()
	eFactors := ix.e.FactorsSLM(ins.E)
	if err := writeEFactors(w, eFactors, len(ref.E), c.edgeBits); err != nil {
		return err
	}
	stats.Comp.E += int64(w.Len() - mark)

	// T' factors over the stored (first/last-stripped) bit-strings.
	// Mode 1: identical to the reference (Com = ∅, the paper's special
	// case).  Mode 00: factor list.  Mode 01: verbatim bits — for very
	// short strings a single factor can exceed the raw form, so the
	// encoder keeps whichever is smaller.
	mark = w.Len()
	refStored := ix.tfStored
	insStored := StoredTF(ins.TF)
	switch {
	case boolsEqual(insStored, refStored):
		w.WriteBit(1)
	default:
		w.WriteBit(0)
		factors := ix.tf.FactorsTF(insStored)
		probe := bitio.NewWriter(64)
		writeTFFactors(probe, factors, len(refStored))
		if probe.Len() < len(insStored) {
			w.WriteBit(0)
			writeTFFactors(w, factors, len(refStored))
		} else {
			w.WriteBit(1)
			for _, b := range insStored {
				w.WriteBool(b)
			}
		}
	}
	stats.Comp.TF += int64(w.Len() - mark)

	// D factors.
	mark = w.Len()
	dFactors := diffDQuant(ins.D, ix.dQuant, c.dCodec)
	w.WriteCount(len(dFactors))
	posBits := bitio.WidthFor(len(u.T) - 1)
	for _, f := range dFactors {
		w.WriteBits(uint64(f.Pos), posBits)
		c.dCodec.Encode(w, f.RD)
	}
	stats.Comp.D += int64(w.Len() - mark)
	return nil
}

// writeEFactors encodes an E factor list.  S takes ⌈log2(|E(Ref)|+1)⌉ bits
// (the value |E(Ref)| is the case-B sentinel), L-1 takes ⌈log2 |E(Ref)|⌉
// bits and M takes ⌈log2(o+1)⌉ bits (Section 4.4).
func writeEFactors(w *bitio.Writer, factors []EFactor, refLen, edgeBits int) error {
	sBits := bitio.WidthFor(refLen)
	lBits := bitio.WidthFor(refLen - 1)
	w.WriteCount(len(factors))
	lastHasM := len(factors) > 0 && factors[len(factors)-1].HasM
	w.WriteBool(lastHasM)
	for _, f := range factors {
		if f.NotInRef {
			w.WriteBits(uint64(refLen), sBits)
			w.WriteBits(uint64(f.M), edgeBits)
			continue
		}
		if f.L < 1 || f.L > refLen {
			return fmt.Errorf("core: E factor length %d outside [1, %d]", f.L, refLen)
		}
		w.WriteBits(uint64(f.S), sBits)
		w.WriteBits(uint64(f.L-1), lBits)
		if f.HasM {
			w.WriteBits(uint64(f.M), edgeBits)
		}
	}
	return nil
}

// readListLen reads the γ-coded length of a list whose entries each take at
// least one bit, except perhaps the last, and rejects a length the rest of
// the stream cannot hold: a corrupt count must not size an allocation.
func readListLen(r *bitio.Reader) (int, error) {
	n, err := r.ReadCount()
	if err == nil && (n < 0 || n > r.Remaining()+1) {
		err = fmt.Errorf("core: list of %d entries exceeds the %d bits left", n, r.Remaining())
	}
	return n, err
}

// readEFactors decodes an E factor list into dst's backing array.  Reusing
// dst across calls makes the decode allocation-free.
func readEFactors(r *bitio.Reader, refLen, edgeBits int, dst []EFactor) ([]EFactor, error) {
	sBits := bitio.WidthFor(refLen)
	lBits := bitio.WidthFor(refLen - 1)
	h, err := readListLen(r)
	if err != nil {
		return dst, err
	}
	lastHasM, err := r.ReadBool()
	if err != nil {
		return dst, err
	}
	factors := growTo(dst, h)
	for i := 0; i < h; i++ {
		s, err := r.ReadBits(sBits)
		if err != nil {
			return factors, err
		}
		if int(s) == refLen {
			m, err := r.ReadBits(edgeBits)
			if err != nil {
				return factors, err
			}
			factors[i] = EFactor{S: refLen, M: uint16(m), HasM: true, NotInRef: true}
			continue
		}
		lm1, err := r.ReadBits(lBits)
		if err != nil {
			return factors, err
		}
		f := EFactor{S: int(s), L: int(lm1) + 1}
		if i != h-1 || lastHasM {
			m, err := r.ReadBits(edgeBits)
			if err != nil {
				return factors, err
			}
			f.M = uint16(m)
			f.HasM = true
		}
		factors[i] = f
	}
	return factors, nil
}

// growTo returns s resized to length n, reusing its backing array when it
// is large enough.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// writeTFFactors encodes a T' factor list: S and L in ⌈log2 |T'(Ref)|⌉-ish
// bits, M in 1 bit (per the paper's cost model).
func writeTFFactors(w *bitio.Writer, factors []TFFactor, refLen int) {
	sBits := bitio.WidthFor(maxInt(refLen-1, 0))
	lBits := bitio.WidthFor(refLen)
	w.WriteCount(len(factors))
	lastHasM := len(factors) > 0 && factors[len(factors)-1].HasM
	w.WriteBool(lastHasM)
	for _, f := range factors {
		w.WriteBits(uint64(f.S), sBits)
		w.WriteBits(uint64(f.L), lBits)
		if f.HasM {
			w.WriteBool(f.M)
		}
	}
}

// readTFFactors decodes a T' factor list into dst's backing array.
func readTFFactors(r *bitio.Reader, refLen int, dst []TFFactor) ([]TFFactor, error) {
	sBits := bitio.WidthFor(maxInt(refLen-1, 0))
	lBits := bitio.WidthFor(refLen)
	h, err := readListLen(r)
	if err != nil {
		return dst, err
	}
	lastHasM, err := r.ReadBool()
	if err != nil {
		return dst, err
	}
	factors := growTo(dst, h)
	for i := 0; i < h; i++ {
		s, err := r.ReadBits(sBits)
		if err != nil {
			return factors, err
		}
		l, err := r.ReadBits(lBits)
		if err != nil {
			return factors, err
		}
		f := TFFactor{S: int(s), L: int(l)}
		if i != h-1 || lastHasM {
			m, err := r.ReadBool()
			if err != nil {
				return factors, err
			}
			f.M = m
			f.HasM = true
		}
		factors[i] = f
	}
	return factors, nil
}

// readDFactors decodes a D factor list ([numD γ][pos, PDDP code]...) into
// dst's backing array; posBits is the width of a point index.
func readDFactors(r *bitio.Reader, posBits int, codec *pddp.Codec, dst []DFactor) ([]DFactor, error) {
	nd, err := readListLen(r)
	if err != nil {
		return dst, err
	}
	factors := growTo(dst, nd)
	for i := range factors {
		pos, err := r.ReadBits(posBits)
		if err != nil {
			return factors, err
		}
		rd, err := codec.Decode(r)
		if err != nil {
			return factors, err
		}
		factors[i] = DFactor{Pos: int(pos), RD: rd}
	}
	return factors, nil
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
