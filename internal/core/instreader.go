package core

import (
	"errors"
	"fmt"

	"utcq/internal/bitio"
	"utcq/internal/pddp"
	"utcq/internal/roadnet"
)

// errInstEnd is returned by a read past the end of an instance's sequence.
var errInstEnd = errors.New("core: read past the end of the instance")

// InstReader streams one instance of a trajectory record straight off
// TrajRecord.Bits: the edge-number sequence E together with the full
// time-flag bit-string T' position by position (Next), and the relative
// distances D point by point (NextD).  It is the only reader of instance
// records: queries, full decompression (DecodeTrajectory) and index
// construction all walk the bitstream through it.  Nothing is
// materialized:
//
//   - a reference's E entries and stored T' bits are fixed-width fields
//     read in place;
//   - a non-reference's E and T' factors are walked forward against its
//     reference's bits (raw-mode T' bits are read in place);
//   - D codes are decoded forward from the reference's D section, with the
//     non-reference's D factors overriding.
//
// A query touching the first k points of an instance therefore reads only
// the bits those points occupy (partial decompression, Section 5.1).
//
// The zero value is ready for Reset.  Reset reuses the factor buffers of
// the previous instance, so a pooled reader is allocation-free in steady
// state.  An InstReader is not safe for concurrent use.
type InstReader struct {
	sv     roadnet.VertexID
	p      float64 // the instance's probability, from its head
	n, i   int     // length of E and of the full T'; next position
	points int     // number of points (D values)
	k      int     // next point
	ref    bool
	eBits  int
	refE   int // bit position of the reference's E entries
	refTF  int // bit position of the reference's stored T' bits
	dCodec *pddp.Codec
	e, tf  bitio.Reader
	d      bitio.Reader // the reference's D codes
	tfLeft int          // stored T' bits left in tf (unfactored modes)
	factTF bool         // T' is a factor list over the reference's bits
	ef     []EFactor
	fi, fo int // current E factor and the offset inside it
	f      int // E factor of the position Next returned last; -1 for a reference
	tff    []TFFactor
	ti, to int // current T' factor and the offset inside it
	df     []DFactor
	di     int // next D factor
}

// Reset points the reader at instance orig of trajectory j.
func (c *InstReader) Reset(a *Archive, j, orig int) error {
	rec := a.Trajs[j]
	meta := &rec.Insts[orig]
	refOrig := orig
	if meta.RefOrig >= 0 {
		refOrig = meta.RefOrig
		if refOrig >= len(rec.Insts) || rec.Insts[refOrig].RefOrig >= 0 {
			return fmt.Errorf("core: instance %d of trajectory %d has no reference %d", orig, j, refOrig)
		}
	}
	c.eBits, c.dCodec, c.points = a.EdgeBits, a.DCodec, rec.NumPoints
	c.i, c.k, c.di = 0, 0, 0
	c.e.Reset(rec.Bits, rec.BitLen)
	c.tf.Reset(rec.Bits, rec.BitLen)
	c.d.Reset(rec.Bits, rec.BitLen)

	// The reference's layout: E entries, then max(|E|-2, 0) stored T'
	// bits, then the D codes.
	r := &c.e
	start := rec.Insts[refOrig].Start
	if err := r.Seek(start); err != nil {
		return err
	}
	p, err := a.expectHead(r, start, refOrig, true)
	if err != nil {
		return err
	}
	sv, refLen, err := a.readRefSkeleton(r)
	if err != nil {
		return err
	}
	refTFLen := max(refLen-2, 0)
	c.sv, c.refE = sv, r.Pos()
	c.refTF = c.refE + refLen*a.EdgeBits
	if err := c.d.Seek(c.refTF + refTFLen); err != nil {
		return err
	}
	c.factTF, c.tfLeft, c.df, c.f = false, refTFLen, c.df[:0], -1
	if meta.RefOrig < 0 {
		c.ref, c.n, c.p = true, refLen, p
		return c.tf.Seek(c.refTF)
	}

	// Non-reference: [head][refPos γ][E factors][T' mode + data][D factors].
	c.ref = false
	if err := r.Seek(meta.Start); err != nil {
		return err
	}
	if c.p, err = a.expectHead(r, meta.Start, orig, false); err != nil {
		return err
	}
	if _, err := r.ReadCount(); err != nil { // refPos
		return err
	}
	if c.ef, err = readEFactors(r, refLen, a.EdgeBits, c.ef); err != nil {
		return err
	}
	c.n, c.fi, c.fo = 0, 0, 0
	for h, f := range c.ef {
		switch {
		case f.NotInRef:
			c.n++
			continue
		case f.S < 0 || f.L < 1 || f.S+f.L > refLen:
			return fmt.Errorf("core: factor %d (%d,%d) outside reference of length %d", h, f.S, f.L, refLen)
		case !f.HasM && h != len(c.ef)-1:
			return errors.New("core: (S,L) factor before the end")
		}
		c.n += f.L
		if f.HasM {
			c.n++
		}
	}
	storedLen := max(c.n-2, 0)
	same, err := r.ReadBool()
	if err != nil {
		return err
	}
	raw := false
	if !same {
		if raw, err = r.ReadBool(); err != nil {
			return err
		}
	}
	switch {
	case same: // the reference's stored bits
		err = c.tf.Seek(c.refTF)
	case raw: // verbatim stored bits, read in place
		c.tfLeft = storedLen
		if err = c.tf.Seek(r.Pos()); err == nil {
			err = r.Seek(r.Pos() + storedLen)
		}
	default:
		err = c.readTFFactors(r, refTFLen, storedLen)
	}
	if err != nil {
		return err
	}
	c.df, err = readDFactors(r, bitio.WidthFor(rec.NumPoints-1), a.DCodec, c.df)
	return err
}

// readTFFactors reads a factored T' and checks that it expands to exactly
// storedLen bits of the reference's refTFLen.
func (c *InstReader) readTFFactors(r *bitio.Reader, refTFLen, storedLen int) error {
	var err error
	if c.tff, err = readTFFactors(r, refTFLen, c.tff); err != nil {
		return err
	}
	c.factTF, c.ti, c.to = true, 0, 0
	n := 0
	for h, f := range c.tff {
		if f.S < 0 || f.L < 0 || f.S+f.L > refTFLen {
			return fmt.Errorf("core: TF factor %d (%d,%d) outside reference of length %d", h, f.S, f.L, refTFLen)
		}
		n += f.L
		if f.HasM {
			n++
		}
	}
	if n != storedLen {
		return fmt.Errorf("core: T' factors expand to %d bits, want %d", n, storedLen)
	}
	return nil
}

// readHead reads the prefix every instance record starts with,
// [origIdx γ][isRef][p PDDP].
func (a *Archive) readHead(r *bitio.Reader) (orig int, isRef bool, p float64, err error) {
	if orig, err = r.ReadCount(); err != nil {
		return 0, false, 0, err
	}
	if isRef, err = r.ReadBool(); err != nil {
		return 0, false, 0, err
	}
	p, err = a.PCodec.Decode(r)
	return orig, isRef, p, err
}

// expectHead reads a record head with readHead and checks that the record
// at bit start is instance orig of the expected kind.  It returns p.
func (a *Archive) expectHead(r *bitio.Reader, start, orig int, wantRef bool) (float64, error) {
	gotOrig, isRef, p, err := a.readHead(r)
	switch {
	case err != nil:
		return 0, err
	case gotOrig != orig:
		return 0, fmt.Errorf("core: record at %d has orig %d, want %d", start, gotOrig, orig)
	case isRef != wantRef && wantRef:
		return 0, fmt.Errorf("core: record %d is not a reference record", orig)
	case isRef != wantRef:
		return 0, fmt.Errorf("core: record %d is a reference record", orig)
	}
	return p, nil
}

// readRefSkeleton reads a reference record's [SV][|E| γ] after its head,
// leaving r at the first E entry.  An |E| the rest of the record cannot
// hold is an error.
func (a *Archive) readRefSkeleton(r *bitio.Reader) (roadnet.VertexID, int, error) {
	sv, err := r.ReadBits(a.VertexBits)
	if err != nil {
		return 0, 0, err
	}
	eCount, err := r.ReadCount()
	if err == nil && (eCount < 0 || eCount > r.Remaining()) {
		err = fmt.Errorf("core: reference |E| = %d exceeds the %d bits left", eCount, r.Remaining())
	}
	return roadnet.VertexID(sv), eCount, err
}

// SV returns the instance's start vertex.
func (c *InstReader) SV() roadnet.VertexID { return c.sv }

// P returns the instance's probability as its record head stores it.
func (c *InstReader) P() float64 { return c.p }

// Factor returns the index of the E factor that produced the position
// Next returned last, or -1 for a reference.
func (c *InstReader) Factor() int { return c.f }

// Done reports whether Next has returned every position.
func (c *InstReader) Done() bool { return c.i >= c.n }

// Next returns E[i] and T'[i] for the next position i.
func (c *InstReader) Next() (no uint16, flag bool, err error) {
	i := c.i
	if i >= c.n {
		return 0, false, errInstEnd
	}
	c.i++
	if c.ref {
		var v uint64
		v, err = c.e.ReadBits(c.eBits)
		no = uint16(v)
	} else {
		c.f = c.fi
		no, err = c.nextFactorEdge()
	}
	if err != nil {
		return 0, false, err
	}
	if i == 0 || i == c.n-1 {
		return no, true, nil // the first and last flags are implied
	}
	flag, err = c.nextStoredFlag()
	return no, flag, err
}

// nextFactorEdge expands the next E symbol of a non-reference.
func (c *InstReader) nextFactorEdge() (uint16, error) {
	f := &c.ef[c.fi]
	if f.NotInRef || c.fo == f.L {
		c.fi, c.fo = c.fi+1, 0
		return f.M, nil
	}
	if c.fo == 0 {
		if err := c.e.Seek(c.refE + f.S*c.eBits); err != nil {
			return 0, err
		}
	}
	c.fo++
	if c.fo == f.L && !f.HasM {
		c.fi, c.fo = c.fi+1, 0
	}
	v, err := c.e.ReadBits(c.eBits)
	return uint16(v), err
}

// nextStoredFlag returns the next bit of the stored (first/last-stripped)
// T'.  A stored string shorter than the sequence reads as 0s.
func (c *InstReader) nextStoredFlag() (bool, error) {
	if !c.factTF {
		if c.tfLeft == 0 {
			return false, nil
		}
		c.tfLeft--
		return c.tf.ReadBool()
	}
	f := &c.tff[c.ti]
	if c.to == f.L {
		c.ti, c.to = c.ti+1, 0
		return f.M, nil
	}
	if c.to == 0 {
		if err := c.tf.Seek(c.refTF + f.S); err != nil {
			return false, err
		}
	}
	c.to++
	if c.to == f.L && !f.HasM {
		c.ti, c.to = c.ti+1, 0
	}
	return c.tf.ReadBool()
}

// NextD decodes the relative distance of the next point.
func (c *InstReader) NextD() (float64, error) {
	k := c.k
	if k >= c.points {
		return 0, errInstEnd
	}
	c.k++
	v, err := c.dCodec.Decode(&c.d)
	if err != nil {
		return 0, err
	}
	for c.di < len(c.df) && c.df[c.di].Pos < k {
		c.di++
	}
	if c.di < len(c.df) && c.df[c.di].Pos == k {
		v = c.df[c.di].RD
		c.di++
	}
	return v, nil
}

// Release drops the reader's references to the record, so a pooled reader
// does not keep an archive (or its file mapping) reachable.
func (c *InstReader) Release() {
	c.e.Reset(nil, 0)
	c.tf.Reset(nil, 0)
	c.d.Reset(nil, 0)
	c.dCodec = nil
}
