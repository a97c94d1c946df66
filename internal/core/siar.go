// Package core implements the UTCQ framework's representor and compressor
// (Section 4 of the paper): the improved TED representation with SIAR
// temporal encoding, referential representation of non-reference instances,
// pivot-based reference selection with the Fine-grained Jaccard Distance,
// and the binary encoder/decoder with partial-decompression support (flag
// and original arrays, Section 5.1).
package core

import (
	"fmt"

	"utcq/internal/bitio"
	"utcq/internal/egolomb"
)

// SIARDeltas converts a time sequence into its Sample Interval Adaptive
// Representation (Section 4.1): deviations (t[i+1]-t[i]) - Ts.
func SIARDeltas(T []int64, Ts int64) []int64 {
	if len(T) == 0 {
		return nil
	}
	out := make([]int64, len(T)-1)
	for i := 1; i < len(T); i++ {
		out[i-1] = T[i] - T[i-1] - Ts
	}
	return out
}

// SIARRestore inverts SIARDeltas.
func SIARRestore(t0 int64, deltas []int64, Ts int64) []int64 {
	out := make([]int64, len(deltas)+1)
	out[0] = t0
	for i, d := range deltas {
		out[i+1] = out[i] + Ts + d
	}
	return out
}

// secondsOfDayBits is the paper's t0 width: 17 bits cover one day of
// seconds (the worked example encodes 5:03:25 in 17 bits).
const secondsOfDayBits = 17

// encodeT writes the complete time section of one trajectory: t0, the
// point count, and the Exp-Golomb coded SIAR deviations.  It returns the
// absolute bit position of each deviation code — the temporal index stores
// these as t.pos so queries can resume decoding mid-stream.
func encodeT(w *bitio.Writer, T []int64, Ts int64) (deltaPos []int) {
	t0 := T[0]
	if t0 >= 0 && t0 < 1<<secondsOfDayBits {
		w.WriteBit(0)
		w.WriteBits(uint64(t0), secondsOfDayBits)
	} else {
		// Escape hatch for timestamps outside one day (not produced by the
		// generator, but the codec must stay total).
		w.WriteBit(1)
		w.WriteBits(uint64(t0)&(1<<62-1), 62)
	}
	w.WriteCount(len(T))
	deltaPos = make([]int, 0, len(T)-1)
	for _, d := range SIARDeltas(T, Ts) {
		deltaPos = append(deltaPos, w.Len())
		egolomb.Encode(w, d)
	}
	return deltaPos
}

// decodeT reads a complete time section.
func decodeT(r *bitio.Reader, Ts int64) ([]int64, error) {
	esc, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	width := secondsOfDayBits
	if esc == 1 {
		width = 62
	}
	t0u, err := r.ReadBits(width)
	if err != nil {
		return nil, err
	}
	n, err := readListLen(r)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: invalid point count %d", n)
	}
	deltas, err := egolomb.DecodeAll(r, n-1)
	if err != nil {
		return nil, err
	}
	return SIARRestore(int64(t0u), deltas, Ts), nil
}

// TimeCursor iterates timestamps from a mid-stream position, implementing
// the partial decompression the temporal index enables.  The embedded
// reader is a value so a cursor can live on the caller's stack
// (TrajRecord.ResetTimeCursor) without per-query allocation.
type TimeCursor struct {
	r   bitio.Reader
	t   int64 // timestamp at Index
	idx int   // index of t within T
	n   int   // total number of timestamps
	ts  int64
}

// Index returns the index of the current timestamp.
func (c *TimeCursor) Index() int { return c.idx }

// T returns the current timestamp.
func (c *TimeCursor) T() int64 { return c.t }

// Next advances to the following timestamp; it reports false past the end.
func (c *TimeCursor) Next() bool {
	if c.idx+1 >= c.n {
		return false
	}
	d, err := egolomb.Decode(&c.r)
	if err != nil {
		return false
	}
	c.t += c.ts + d
	c.idx++
	return true
}
