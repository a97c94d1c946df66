package core

import (
	"fmt"
	"sort"
	"sync"

	"utcq/internal/bitio"
	"utcq/internal/roadnet"
	"utcq/internal/traj"
)

// RefView is a parsed reference record supporting partial decompression:
// individual D codes are addressable by bit position (d.pos) and the flag
// array ω enables O(1) rank queries on the time-flag bit-string.
//
// A RefView is safe for concurrent use: the lazily built navigation
// structure (Omega) is race-free, so one view can be shared by
// many query goroutines.  Views must not be copied after first use.
type RefView struct {
	Orig     int
	SV       roadnet.VertexID
	P        float64
	E        []uint16
	TFStored []bool

	arch      *Archive
	traj      int
	dStart    int // bit offset of the relative-distance codes
	omegaOnce sync.Once
	omega     []int // lazily built flag array
}

// RefView parses the reference record of instance orig in trajectory j.
func (a *Archive) RefView(j, orig int) (*RefView, error) {
	rec := a.Trajs[j]
	meta := rec.Insts[orig]
	if !meta.IsRef {
		return nil, fmt.Errorf("core: instance %d of trajectory %d is not a reference", orig, j)
	}
	r, err := rec.Reader(meta.Start)
	if err != nil {
		return nil, err
	}
	p, err := a.readHead(r, meta.Start, orig, true)
	if err != nil {
		return nil, err
	}
	sv, eCount, err := a.readRefSkeleton(r)
	if err != nil {
		return nil, err
	}
	v := &RefView{Orig: orig, SV: sv, P: p, arch: a, traj: j}
	v.E = make([]uint16, eCount)
	for i := range v.E {
		no, err := r.ReadBits(a.EdgeBits)
		if err != nil {
			return nil, err
		}
		v.E[i] = uint16(no)
	}
	storedLen := eCount - 2
	if storedLen < 0 {
		storedLen = 0
	}
	v.TFStored = make([]bool, storedLen)
	for i := range v.TFStored {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		v.TFStored[i] = b
	}
	// The D section is parsed lazily: partial decompression means a query
	// touching two points decodes two codes, not all of them.
	v.dStart = r.Pos()
	return v, nil
}

// readHead reads the prefix every instance record starts with,
// [origIdx γ][isRef][p PDDP], and checks that the record at bit start is
// instance orig of the expected kind.  It returns p.
func (a *Archive) readHead(r *bitio.Reader, start, orig int, wantRef bool) (float64, error) {
	gotOrig, err := r.ReadCount()
	if err != nil {
		return 0, err
	}
	if gotOrig != orig {
		return 0, fmt.Errorf("core: record at %d has orig %d, want %d", start, gotOrig, orig)
	}
	isRef, err := r.ReadBool()
	if err != nil {
		return 0, err
	}
	if isRef != wantRef {
		if wantRef {
			return 0, fmt.Errorf("core: record %d is not a reference record", orig)
		}
		return 0, fmt.Errorf("core: record %d is a reference record", orig)
	}
	return a.PCodec.Decode(r)
}

// readRefSkeleton reads a reference record's [SV][|E| γ] after its head,
// leaving r at the first E entry.
func (a *Archive) readRefSkeleton(r *bitio.Reader) (roadnet.VertexID, int, error) {
	sv, err := r.ReadBits(a.VertexBits)
	if err != nil {
		return 0, 0, err
	}
	eCount, err := r.ReadCount()
	return roadnet.VertexID(sv), eCount, err
}

// ECount returns the length of the edge-number sequence.
func (v *RefView) ECount() int { return len(v.E) }

// FullTF reconstructs the complete time-flag bit-string.
func (v *RefView) FullTF() []bool { return FullTF(v.TFStored, len(v.E)) }

// Omega returns the flag array ω (Section 5.1): Omega()[g] is the number of
// 1s among the first g stored bits (0 <= g <= len(TFStored)).
func (v *RefView) Omega() []int {
	v.omegaOnce.Do(func() {
		omega := make([]int, len(v.TFStored)+1)
		for i, b := range v.TFStored {
			omega[i+1] = omega[i]
			if b {
				omega[i+1]++
			}
		}
		v.omega = omega
	})
	return v.omega
}

// OnesUpToOriginal is the original array γ: the number of 1s among the
// original time-flag bits 0..g inclusive.
func (v *RefView) OnesUpToOriginal(g int) int {
	return onesUpToOriginal(g, len(v.E), func(x int) int { return v.Omega()[x] })
}

// onesUpToOriginal maps a rank query on the original bit-string (implied
// leading and trailing 1s) to a rank query on the stored bit-string.
func onesUpToOriginal(g, fullLen int, storedOnes func(int) int) int {
	if g < 0 {
		return 0
	}
	if g >= fullLen {
		g = fullLen - 1
	}
	ones := 1 // implied first bit
	storedLen := fullLen - 2
	if storedLen < 0 {
		storedLen = 0
	}
	if g >= 1 {
		x := g
		if x > storedLen {
			x = storedLen
		}
		ones += storedOnes(x)
	}
	if g == fullLen-1 && fullLen >= 2 {
		ones++ // implied last bit
	}
	return ones
}

// PositionOfPoint returns the index g in the original E/T' sequences that
// carries point k (the position of the (k+1)-th set bit).
func (v *RefView) PositionOfPoint(k int) (int, error) {
	return positionOfPoint(k, len(v.E), v.OnesUpToOriginal)
}

func positionOfPoint(k, fullLen int, onesUpTo func(int) int) (int, error) {
	if k < 0 {
		return 0, fmt.Errorf("core: negative point index %d", k)
	}
	if k == 0 {
		return 0, nil
	}
	// onesUpTo is non-decreasing: binary search the smallest g with
	// onesUpTo(g) == k+1 and bit g set.
	g := sort.Search(fullLen, func(g int) bool { return onesUpTo(g) >= k+1 })
	if g >= fullLen {
		return 0, fmt.Errorf("core: point %d beyond bit-string", k)
	}
	return g, nil
}

// D decodes all relative distances.
func (v *RefView) D() ([]float64, error) {
	rec := v.arch.Trajs[v.traj]
	r, err := rec.Reader(v.dStart)
	if err != nil {
		return nil, err
	}
	out := make([]float64, rec.NumPoints)
	for k := range out {
		d, err := v.arch.DCodec.Decode(r)
		if err != nil {
			return nil, err
		}
		out[k] = d
	}
	return out, nil
}

// Instance materializes the reference as a trajectory instance.
func (v *RefView) Instance(numPoints int) (*traj.Instance, error) {
	d, err := v.D()
	if err != nil {
		return nil, err
	}
	_ = numPoints
	return &traj.Instance{SV: v.SV, E: v.E, D: d, TF: v.FullTF(), P: v.P}, nil
}

// NonRefView is a parsed non-reference record: the factor lists of its
// referential representation.
type NonRefView struct {
	Orig      int
	RefOrig   int
	P         float64
	EFactors  []EFactor
	TFSame    bool
	TFRaw     []bool // verbatim stored bits when the encoder chose raw mode
	TFFactors []TFFactor
	DFactors  []DFactor

	eCount int // derived: length of the expanded E sequence
}

// NonRefView parses the non-reference record of instance orig in
// trajectory j against its (already parsed) reference view.
func (a *Archive) NonRefView(j, orig int, ref *RefView) (*NonRefView, error) {
	rec := a.Trajs[j]
	meta := rec.Insts[orig]
	if meta.IsRef {
		return nil, fmt.Errorf("core: instance %d of trajectory %d is a reference", orig, j)
	}
	if meta.RefOrig != ref.Orig {
		return nil, fmt.Errorf("core: reference mismatch: meta %d, view %d", meta.RefOrig, ref.Orig)
	}
	r, err := rec.Reader(meta.Start)
	if err != nil {
		return nil, err
	}
	p, err := a.readHead(r, meta.Start, orig, false)
	if err != nil {
		return nil, err
	}
	if _, err := r.ReadCount(); err != nil { // refPos; directory already knows it
		return nil, err
	}
	v := &NonRefView{Orig: orig, RefOrig: ref.Orig, P: p}
	v.EFactors, err = readEFactors(r, len(ref.E), a.EdgeBits, nil)
	if err != nil {
		return nil, err
	}
	// Derive the expanded E length without expanding (needed for the raw
	// T' mode, whose bit count is ECount-2).
	for _, f := range v.EFactors {
		if f.NotInRef {
			v.eCount++
			continue
		}
		v.eCount += f.L
		if f.HasM {
			v.eCount++
		}
	}
	same, err := r.ReadBool()
	if err != nil {
		return nil, err
	}
	v.TFSame = same
	if !same {
		raw, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if raw {
			storedLen := v.eCount - 2
			if storedLen < 0 {
				storedLen = 0
			}
			v.TFRaw = make([]bool, storedLen)
			for i := range v.TFRaw {
				b, err := r.ReadBool()
				if err != nil {
					return nil, err
				}
				v.TFRaw[i] = b
			}
		} else {
			v.TFFactors, err = readTFFactors(r, len(ref.TFStored), nil)
			if err != nil {
				return nil, err
			}
		}
	}
	v.DFactors, err = readDFactors(r, bitio.WidthFor(rec.NumPoints-1), a.DCodec, nil)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// ECount returns the length of the (not necessarily expanded) E sequence.
func (v *NonRefView) ECount() int { return v.eCount }

// ExpandE reconstructs the edge-number sequence from the factors.
func (v *NonRefView) ExpandE(ref *RefView) ([]uint16, error) {
	return ExpandE(v.EFactors, ref.E)
}

// StoredOnesUpTo counts 1s among the first g stored time-flag bits of the
// non-reference, decompressing at most one factor partially (the Z / γ
// computation of Formulas 4-6): full factors are ranked through the
// reference's flag array ω.
func (v *NonRefView) StoredOnesUpTo(ref *RefView, g int) int {
	if v.TFSame {
		x := g
		if x > len(ref.TFStored) {
			x = len(ref.TFStored)
		}
		if x < 0 {
			x = 0
		}
		return ref.Omega()[x]
	}
	if v.TFRaw != nil {
		ones := 0
		for i := 0; i < g && i < len(v.TFRaw); i++ {
			if v.TFRaw[i] {
				ones++
			}
		}
		return ones
	}
	omega := ref.Omega()
	pos, ones := 0, 0
	for _, f := range v.TFFactors {
		flen := f.L
		if f.HasM {
			flen++
		}
		if pos+flen <= g {
			// Whole factor before g: ω difference plus the mismatch bit.
			ones += omega[f.S+f.L] - omega[f.S]
			if f.HasM && f.M {
				ones++
			}
			pos += flen
			continue
		}
		take := g - pos
		if take > 0 {
			if take > f.L {
				take = f.L
			}
			ones += omega[f.S+take] - omega[f.S]
		}
		return ones
	}
	return ones
}

// TFStoredLen returns the length of the stored time-flag bit-string.
func (v *NonRefView) TFStoredLen(ref *RefView) int {
	if v.TFSame {
		return len(ref.TFStored)
	}
	if v.TFRaw != nil {
		return len(v.TFRaw)
	}
	n := 0
	for _, f := range v.TFFactors {
		n += f.L
		if f.HasM {
			n++
		}
	}
	return n
}

// OnesUpToOriginal is the original array γ of Section 5.1 for the
// non-reference: 1s among original time-flag bits 0..g inclusive.
func (v *NonRefView) OnesUpToOriginal(ref *RefView, g int) int {
	return onesUpToOriginal(g, v.eCount, func(x int) int { return v.StoredOnesUpTo(ref, x) })
}

// PositionOfPoint returns the original-sequence position carrying point k.
func (v *NonRefView) PositionOfPoint(ref *RefView, k int) (int, error) {
	return positionOfPoint(k, v.eCount, func(g int) int { return v.OnesUpToOriginal(ref, g) })
}

// FullTF reconstructs the complete time-flag bit-string.
func (v *NonRefView) FullTF(ref *RefView) ([]bool, error) {
	if v.TFSame {
		return FullTF(ref.TFStored, v.eCount), nil
	}
	if v.TFRaw != nil {
		return FullTF(v.TFRaw, v.eCount), nil
	}
	stored, err := ExpandTF(v.TFFactors, ref.TFStored)
	if err != nil {
		return nil, err
	}
	return FullTF(stored, v.eCount), nil
}

// D reconstructs the relative distances from the reference's plus the
// difference factors.
func (v *NonRefView) D(ref *RefView) ([]float64, error) {
	refD, err := ref.D()
	if err != nil {
		return nil, err
	}
	return ExpandD(v.DFactors, refD)
}

// Instance materializes the non-reference as a trajectory instance.
func (v *NonRefView) Instance(ref *RefView, numPoints int) (*traj.Instance, error) {
	e, err := v.ExpandE(ref)
	if err != nil {
		return nil, err
	}
	tf, err := v.FullTF(ref)
	if err != nil {
		return nil, err
	}
	refD, err := ref.D()
	if err != nil {
		return nil, err
	}
	d, err := ExpandD(v.DFactors, refD)
	if err != nil {
		return nil, err
	}
	return &traj.Instance{SV: ref.SV, E: e, D: d, TF: tf, P: v.P}, nil
}
