// Package core implements the UTCQ framework's representor and compressor
// (Section 4 of the paper): the improved TED representation with SIAR
// temporal encoding, referential representation of non-reference instances,
// pivot-based reference selection with the Fine-grained Jaccard Distance,
// and the binary encoder/decoder with partial-decompression support (flag
// and original arrays, Section 5.1).
package core

import (
	"errors"
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

// escapedT0Bits is the width of a t0 outside one day: a two's-complement
// field, so the codec holds any timestamp in [MinTimestamp, MaxTimestamp].
const escapedT0Bits = 62

// MinTimestamp and MaxTimestamp bound the timestamps an archive can hold.
const (
	MinTimestamp = -1 << (escapedT0Bits - 1)
	MaxTimestamp = 1<<(escapedT0Bits-1) - 1
)

// checkT0 rejects a time sequence whose t0 the time section cannot hold.
// Later timestamps are stored as deviations from their predecessor.
func checkT0(T []int64) error {
	if len(T) == 0 {
		return errors.New("core: trajectory has no timestamps")
	}
	if T[0] < MinTimestamp || T[0] > MaxTimestamp {
		return fmt.Errorf("core: t0 = %d outside [%d, %d]", T[0], MinTimestamp, MaxTimestamp)
	}
	return nil
}

// encodeT writes the complete time section of one trajectory: t0, the
// point count, and the Exp-Golomb coded SIAR deviations.
func encodeT(w *bitio.Writer, T []int64, Ts int64) {
	t0 := T[0]
	if t0 >= 0 && t0 < 1<<secondsOfDayBits {
		w.WriteBit(0)
		w.WriteBits(uint64(t0), secondsOfDayBits)
	} else {
		// Escape hatch for timestamps outside one day (not produced by the
		// generator, but the codec must stay total).
		w.WriteBit(1)
		w.WriteBits(uint64(t0), escapedT0Bits)
	}
	w.WriteCount(len(T))
	for _, d := range SIARDeltas(T, Ts) {
		egolomb.Encode(w, d)
	}
}

// readTimeHeader reads the head of a time section, t0 and the point
// count, leaving r at the first deviation code.
func readTimeHeader(r *bitio.Reader) (t0 int64, n int, err error) {
	esc, err := r.ReadBit()
	if err != nil {
		return 0, 0, err
	}
	width := secondsOfDayBits
	if esc == 1 {
		width = escapedT0Bits
	}
	t0u, err := r.ReadBits(width)
	if err != nil {
		return 0, 0, err
	}
	// Sign-extend the escaped field; a 17-bit t0 has bit 61 clear.
	t0 = int64(t0u<<(64-escapedT0Bits)) >> (64 - escapedT0Bits)
	if n, err = readListLen(r); err == nil && n < 1 {
		err = fmt.Errorf("core: invalid point count %d", n)
	}
	return t0, n, err
}

// decodeT reads a complete time section.
func decodeT(r *bitio.Reader, Ts int64) ([]int64, error) {
	t0, n, err := readTimeHeader(r)
	if err != nil {
		return nil, err
	}
	deltas, err := egolomb.DecodeAll(r, n-1)
	if err != nil {
		return nil, err
	}
	return SIARRestore(t0, deltas, Ts), nil
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

// Pos returns the bit position of the code of the next deviation, the
// temporal index's t.pos, or -1 at the last timestamp.
func (c *TimeCursor) Pos() int {
	if c.idx+1 >= c.n {
		return -1
	}
	return c.r.Pos()
}

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
