// Package bitio provides bit-level writers and readers used by every
// compression scheme in this repository: the substrate for the encodings
// of Section 4 of the UTCQ paper and the partial-decompression machinery
// of Section 5.1.
//
// All multi-bit fields are written most-significant-bit first, which makes
// the streams match the worked examples in the UTCQ paper (e.g. the
// improved Exp-Golomb codeword "1000" for Δ=+1, Section 4.4).  The exact
// bit layout of every primitive is specified normatively in
// docs/FORMAT.md.
//
// Both Writer and Reader track their absolute bit position.  The StIU index
// stores such positions (t.pos) so that query processing can resume
// decoding mid-stream (partial decompression, Section 5.1).
//
// The hot paths are word-level: the Writer packs MSB-first into a 64-bit
// accumulator flushed eight bytes at a time, and the Reader extracts fields
// from a single big-endian 64-bit load; unary and Elias-gamma runs are
// scanned with math/bits.LeadingZeros64 instead of per-bit loops.  The bit
// streams produced are identical to the historical bit-by-bit
// implementation (see FuzzBitioRoundTrip, which cross-checks against a
// reference bit-by-bit model).
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// errMalformedGamma is returned for implausibly long Elias-gamma prefixes.
var errMalformedGamma = errors.New("bitio: malformed Elias gamma code")

// Writer accumulates bits into a byte slice.  The zero value is ready to use.
//
// Internally, buf holds completed bytes and acc stages up to 63 pending bits
// in its most-significant positions; acc is flushed to buf eight bytes at a
// time.  Bytes settles the pending bits into buf, and a write after Bytes
// un-settles them, so interleaving writes and Bytes stays correct.
type Writer struct {
	buf     []byte
	acc     uint64 // pending bits, MSB-first, top accN bits valid
	accN    int    // number of pending bits, in [0, 64)
	nbit    int    // total number of bits written
	settled bool   // buf currently carries (accN+7)/8 provisional bytes
}

// NewWriter returns a Writer with capacity for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Len returns the number of bits written so far.  It is also the bit
// position at which the next write will land.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the written bits packed into bytes.  The final byte is
// zero-padded.  The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte {
	if !w.settled {
		acc := w.acc
		for n := w.accN; n > 0; n -= 8 {
			w.buf = append(w.buf, byte(acc>>56))
			acc <<= 8
		}
		w.settled = true
	}
	return w.buf
}

// push appends the width least-significant bits of v (already masked to
// width) through the accumulator.  width must be in [0, 64].
func (w *Writer) push(v uint64, width int) {
	if w.settled {
		w.buf = w.buf[:len(w.buf)-(w.accN+7)/8]
		w.settled = false
	}
	n := w.accN + width
	switch {
	case n < 64:
		w.acc |= v << uint(64-n)
		w.accN = n
	case n == 64:
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v)
		w.acc, w.accN = 0, 0
	default: // n in (64, 128): flush 64 bits, keep the low n-64 bits of v
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>uint(n-64))
		w.acc = v << uint(128-n)
		w.accN = n - 64
	}
	w.nbit += width
}

// WriteBit appends a single bit (any non-zero b writes a 1).
func (w *Writer) WriteBit(b uint) {
	if b != 0 {
		b = 1
	}
	w.push(uint64(b), 1)
}

// WriteBool appends a single bit from a bool.
func (w *Writer) WriteBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	w.push(v, 1)
}

// WriteBits appends the width least-significant bits of v, MSB first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	w.push(v, width)
}

// WriteUnary appends n 1-bits followed by a terminating 0-bit.
func (w *Writer) WriteUnary(n int) {
	for n >= 63 {
		w.push(1<<63-1, 63)
		n -= 63
	}
	// n ones and the terminating zero fit in one push of n+1 bits.
	w.push(1<<uint(n+1)-2, n+1)
}

// WriteEliasGamma appends the Elias-gamma code of v (v >= 1): the bit length
// of v in unary-minus-one zeros, then v itself in binary.
func (w *Writer) WriteEliasGamma(v uint64) {
	if v == 0 {
		panic("bitio: Elias gamma undefined for 0")
	}
	n := bits.Len64(v)
	if 2*n-1 <= 64 {
		// v < 2^n, so writing v in 2n-1 bits yields exactly n-1 leading
		// zeros followed by the n bits of v.
		w.push(v, 2*n-1)
		return
	}
	w.push(0, n-1)
	w.push(v, n)
}

// WriteCount appends a non-negative counter using Elias gamma of v+1.
func (w *Writer) WriteCount(v int) {
	if v < 0 {
		panic("bitio: negative count")
	}
	w.WriteEliasGamma(uint64(v) + 1)
}

// AlignByte pads with 0-bits to the next byte boundary and reports how many
// padding bits were added.
func (w *Writer) AlignByte() int {
	pad := (8 - w.nbit&7) & 7
	if pad > 0 {
		w.push(0, pad)
	}
	return pad
}

// Reader consumes bits from a byte slice.  The zero value is an empty
// stream; Reset re-points an existing Reader at a new buffer without
// allocating.
type Reader struct {
	buf  []byte
	pos  int // next bit to read
	nbit int // total available bits
}

// NewReader returns a Reader over buf exposing len(buf)*8 bits.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf, nbit: len(buf) * 8}
}

// NewReaderBits returns a Reader over buf exposing exactly nbits bits.
func NewReaderBits(buf []byte, nbits int) *Reader {
	if nbits > len(buf)*8 {
		panic("bitio: nbits exceeds buffer")
	}
	return &Reader{buf: buf, nbit: nbits}
}

// Reset re-points the reader at buf exposing exactly nbits bits, positioned
// at bit 0.  It allows stack-allocated or pooled readers on hot paths.
func (r *Reader) Reset(buf []byte, nbits int) {
	if nbits > len(buf)*8 {
		panic("bitio: nbits exceeds buffer")
	}
	r.buf, r.pos, r.nbit = buf, 0, nbits
}

// Pos returns the absolute bit position of the next read.
func (r *Reader) Pos() int { return r.pos }

// Seek positions the reader at absolute bit position pos.
func (r *Reader) Seek(pos int) error {
	if pos < 0 || pos > r.nbit {
		return fmt.Errorf("bitio: seek to %d outside stream of %d bits", pos, r.nbit)
	}
	r.pos = pos
	return nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// word returns up to 64 bits starting at byte index i, big-endian,
// zero-padded past the end of the buffer.
func (r *Reader) word(i int) uint64 {
	if i+8 <= len(r.buf) {
		return binary.BigEndian.Uint64(r.buf[i:])
	}
	var v uint64
	for k := i; k < len(r.buf); k++ {
		v |= uint64(r.buf[k]) << uint(56-8*(k-i))
	}
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrUnexpectedEOF
	}
	b := (r.buf[r.pos>>3] >> uint(7-r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBool reads a single bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// ReadBits reads width bits, MSB first.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.pos+width > r.nbit {
		return 0, ErrUnexpectedEOF
	}
	if width == 0 {
		return 0, nil
	}
	i := r.pos >> 3
	off := uint(r.pos & 7)
	word := r.word(i)
	r.pos += width
	if int(off)+width <= 64 {
		return (word << off) >> uint(64-width), nil
	}
	// The field straddles the 64-bit load: off >= 1 here, so the first
	// 64-off bits come from word and the remaining rem from the next byte.
	rem := uint(int(off) + width - 64) // in [1, 7]
	v1 := word & (1<<(64-off) - 1)
	v2 := uint64(r.buf[i+8]) >> (8 - rem)
	return v1<<rem | v2, nil
}

// readRun counts consecutive `one` bits starting at the current position
// and consumes them plus the terminating complementary bit.  maxRun < 0
// means unbounded; otherwise exceeding maxRun returns errMalformedGamma.
func (r *Reader) readRun(one bool, maxRun int) (int, error) {
	// Fast path: run and terminator inside one full aligned load.
	if i := r.pos >> 3; i+8 <= len(r.buf) {
		off := uint(r.pos & 7)
		word := binary.BigEndian.Uint64(r.buf[i:])
		if one {
			word = ^word
		}
		k := bits.LeadingZeros64(word << off)
		if k < 64-int(off) && r.pos+k < r.nbit && (maxRun < 0 || k <= maxRun) {
			r.pos += k + 1
			return k, nil
		}
	}
	n := 0
	for {
		if r.pos >= r.nbit {
			return 0, ErrUnexpectedEOF
		}
		i := r.pos >> 3
		off := uint(r.pos & 7)
		word := r.word(i)
		if one {
			word = ^word
		}
		// After the shift the run bits lead; count its leading zeros.
		k := bits.LeadingZeros64(word << off)
		avail := r.nbit - r.pos
		if avail > 64-int(off) {
			avail = 64 - int(off)
		}
		if k >= avail {
			n += avail
			r.pos += avail
			if maxRun >= 0 && n > maxRun {
				return 0, errMalformedGamma
			}
			continue
		}
		n += k
		if maxRun >= 0 && n > maxRun {
			return 0, errMalformedGamma
		}
		r.pos += k + 1 // consume the run and its terminator
		return n, nil
	}
}

// ReadUnary reads 1-bits until a 0-bit and returns the count of 1-bits.
//
// The common case is duplicated from readRun deliberately: this small body
// inlines into the egolomb decode loop while readRun does not, and the two
// must stay in sync (FuzzBitioRoundTrip covers both paths).
func (r *Reader) ReadUnary() (int, error) {
	if i := r.pos >> 3; i+8 <= len(r.buf) {
		off := uint(r.pos & 7)
		k := bits.LeadingZeros64(^binary.BigEndian.Uint64(r.buf[i:]) << off)
		if k < 64-int(off) && r.pos+k < r.nbit {
			r.pos += k + 1
			return k, nil
		}
	}
	return r.readRun(true, -1)
}

// ReadEliasGamma reads an Elias-gamma coded value (>= 1).
func (r *Reader) ReadEliasGamma() (uint64, error) {
	// Common case: the whole code lies in the next 64-bit window.
	if i := r.pos >> 3; i+8 <= len(r.buf) {
		off := uint(r.pos & 7)
		w := binary.BigEndian.Uint64(r.buf[i:]) << off
		n := 2*bits.LeadingZeros64(w) + 1 // code length
		if n <= 64-int(off) && r.pos+n <= r.nbit {
			r.pos += n
			return w >> (64 - n), nil
		}
	}
	zeros, err := r.readRun(false, 64)
	if err != nil {
		return 0, err
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// ReadCount reads a counter written by WriteCount.
func (r *Reader) ReadCount() (int, error) {
	v, err := r.ReadEliasGamma()
	if err != nil {
		return 0, err
	}
	return int(v - 1), nil
}

// WidthFor returns the number of bits needed to store values in [0, maxVal].
// WidthFor(0) == 0: a field whose only possible value is zero needs no bits.
func WidthFor(maxVal int) int {
	if maxVal <= 0 {
		return 0
	}
	return bits.Len64(uint64(maxVal))
}
