package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"utcq/internal/bitio"
	"utcq/internal/pddp"
	"utcq/internal/roadnet"
)

// Archive serialization: a compact binary container so archives can be
// written to disk and reopened later.  The payload is the per-trajectory
// bit streams, which are the only copy of every record fact: t0, the
// point count and each instance's head (original index, reference flag,
// p, reference position) are read from the heads in one pass at open.
// Beside each stream the container keeps just what a reader cannot find
// without decoding whole records: the stream's bit length and the bit
// offset of every instance record.
//
// Fields are encoded by hand with encoding/binary's append and decode
// functions rather than binary.Write/binary.Read: the reflection those
// take per field is a known Go slow path.  The wire format is documented
// normatively in docs/FORMAT.md (TestSerializeGolden pins it); keep the
// two in sync.
//
// Layout (little endian; uvarint is encoding/binary's LEB128):
//
//	magic "UTCQ" | version u16
//	options: pivots u16, etaD f64, etaP f64, ts i64, flags u8
//	vertexBits u16 | edgeBits u16 | numTrajs u32
//	per trajectory:
//	  bitLen uvarint, numInsts uvarint
//	  start uvarint × numInsts: each record's bit offset, in write order,
//	    as the delta from the previous one (the first from 0)
//	  payload bytes
//
// LoadBytes reads version 2 only and refuses any other version, like the
// store's manifest, WAL and sidecar readers.
const (
	archiveMagic   = "UTCQ"
	archiveVersion = 2
)

// flag bits of the options byte.
const (
	flagDisableReferential = 1 << 0
	flagPlainJaccard       = 1 << 1
)

// LEWriter encodes fixed-width little-endian fields through a scratch
// buffer, avoiding the per-field reflection of binary.Write.  It frames
// the store's shard manifest (internal/store).
type LEWriter struct {
	w       *bufio.Writer
	scratch [8]byte
}

// NewLEWriter returns a field writer over w.
func NewLEWriter(w *bufio.Writer) *LEWriter { return &LEWriter{w: w} }

// U8 writes one byte.
func (lw *LEWriter) U8(v byte) error { return lw.w.WriteByte(v) }

// U16 writes a little-endian uint16.
func (lw *LEWriter) U16(v uint16) error {
	binary.LittleEndian.PutUint16(lw.scratch[:2], v)
	_, err := lw.w.Write(lw.scratch[:2])
	return err
}

// U32 writes a little-endian uint32.
func (lw *LEWriter) U32(v uint32) error {
	binary.LittleEndian.PutUint32(lw.scratch[:4], v)
	_, err := lw.w.Write(lw.scratch[:4])
	return err
}

// U64 writes a little-endian uint64.
func (lw *LEWriter) U64(v uint64) error {
	binary.LittleEndian.PutUint64(lw.scratch[:8], v)
	_, err := lw.w.Write(lw.scratch[:8])
	return err
}

// I64 writes an int64 as its two's-complement uint64.
func (lw *LEWriter) I64(v int64) error { return lw.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern.
func (lw *LEWriter) F64(v float64) error {
	return lw.U64(math.Float64bits(v))
}

// LEReader decodes fixed-width little-endian fields through a scratch
// buffer, avoiding the per-field reflection of binary.Read.
type LEReader struct {
	r       *bufio.Reader
	scratch [8]byte
}

// NewLEReader returns a field reader over r.
func NewLEReader(r *bufio.Reader) *LEReader { return &LEReader{r: r} }

// U8 reads one byte.
func (lr *LEReader) U8() (byte, error) { return lr.r.ReadByte() }

// U16 reads a little-endian uint16.
func (lr *LEReader) U16() (uint16, error) {
	if _, err := io.ReadFull(lr.r, lr.scratch[:2]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(lr.scratch[:2]), nil
}

// U32 reads a little-endian uint32.
func (lr *LEReader) U32() (uint32, error) {
	if _, err := io.ReadFull(lr.r, lr.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(lr.scratch[:4]), nil
}

// U64 reads a little-endian uint64.
func (lr *LEReader) U64() (uint64, error) {
	if _, err := io.ReadFull(lr.r, lr.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(lr.scratch[:8]), nil
}

// I64 reads an int64.
func (lr *LEReader) I64() (int64, error) {
	v, err := lr.U64()
	return int64(v), err
}

// F64 reads a float64.
func (lr *LEReader) F64() (float64, error) {
	v, err := lr.U64()
	return math.Float64frombits(v), err
}

// Save writes the archive to w.  The road network is not serialized: an
// archive is only meaningful against the network it was compressed with,
// and the caller re-attaches it on Load.
func (a *Archive) Save(w io.Writer) error {
	le := binary.LittleEndian
	hdr := le.AppendUint16([]byte(archiveMagic), archiveVersion)
	hdr = le.AppendUint16(hdr, uint16(a.Opts.NumPivots))
	hdr = le.AppendUint64(hdr, math.Float64bits(a.Opts.EtaD))
	hdr = le.AppendUint64(hdr, math.Float64bits(a.Opts.EtaP))
	hdr = le.AppendUint64(hdr, uint64(a.Opts.Ts))
	flags := byte(0)
	if a.Opts.DisableReferential {
		flags |= flagDisableReferential
	}
	if a.Opts.PlainJaccard {
		flags |= flagPlainJaccard
	}
	hdr = append(hdr, flags)
	hdr = le.AppendUint16(hdr, uint16(a.VertexBits))
	hdr = le.AppendUint16(hdr, uint16(a.EdgeBits))
	hdr = le.AppendUint32(hdr, uint32(len(a.Trajs)))
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var dir []byte
	var starts []int
	for _, tr := range a.Trajs {
		nbytes := (tr.BitLen + 7) / 8
		if nbytes > len(tr.Bits) {
			return fmt.Errorf("core: trajectory payload shorter than its bit length")
		}
		starts = starts[:0]
		for _, m := range tr.Insts {
			starts = append(starts, m.Start)
		}
		slices.Sort(starts) // write order
		dir = binary.AppendUvarint(dir[:0], uint64(tr.BitLen))
		dir = binary.AppendUvarint(dir, uint64(len(starts)))
		prev := 0
		for _, st := range starts {
			dir = binary.AppendUvarint(dir, uint64(st-prev))
			prev = st
		}
		if _, err := bw.Write(dir); err != nil {
			return err
		}
		if _, err := bw.Write(tr.Bits[:nbytes]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads an archive written by Save and attaches the road network.
// The stream is buffered to memory and decoded by LoadBytes; callers that
// already hold the bytes (or a file mapping) should call LoadBytes
// directly and skip the copy.
func Load(r io.Reader, g *roadnet.Graph) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return LoadBytes(data, g)
}

// byteReader decodes the container fields from an in-memory buffer with
// explicit bounds checks.  Unlike LEReader it never copies: take returns
// subslices of the underlying data, which is what makes the mmap decode
// path zero-copy.  The first failure sticks in err, and every later read
// returns zero values.
type byteReader struct {
	data []byte
	off  int
	err  error
}

// errTruncated reports a field extending past the end of the buffer.
var errTruncated = errors.New("core: archive truncated")

func (r *byteReader) remaining() int { return len(r.data) - r.off }

// take returns the next n bytes without copying.
func (r *byteReader) take(n int) []byte {
	if r.err == nil && (n < 0 || r.remaining() < n) {
		r.err = errTruncated
	}
	if r.err != nil {
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// uvarint reads a LEB128 unsigned varint that fits in an int.
func (r *byteReader) uvarint() int {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 { // one byte
		r.off++
		return int(r.data[r.off-1])
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || v > math.MaxInt {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return int(v)
}

// LoadBytes decodes an archive from an in-memory buffer — typically a
// file mapping — and attaches the road network.  Each record's Bits field
// aliases the buffer directly (the bit streams are read-only at query
// time), and the directory is filled from the record heads in one pass:
// only the time header and each instance's head bits are read at open,
// and the rest of a record on first query touch.  The caller owns the
// buffer's lifetime and must keep it valid while the archive or any of
// its records is reachable.  The records are allocated in one block with
// a.Trajs[0] at its start, so while any record is reachable that block
// is: a caller can tie the buffer's lifetime to a.Trajs[0] alone.
func LoadBytes(data []byte, g *roadnet.Graph) (*Archive, error) {
	r := &byteReader{data: data}
	if string(r.take(len(archiveMagic))) != archiveMagic {
		return nil, errors.New("core: not a UTCQ archive")
	}
	version := r.u16()
	opts := Options{
		NumPivots: int(r.u16()),
		EtaD:      math.Float64frombits(r.u64()),
		EtaP:      math.Float64frombits(r.u64()),
		Ts:        int64(r.u64()),
	}
	if flags := r.take(1); flags != nil {
		opts.DisableReferential = flags[0]&flagDisableReferential != 0
		opts.PlainJaccard = flags[0]&flagPlainJaccard != 0
	}
	a := &Archive{Opts: opts, Graph: g, VertexBits: int(r.u16()), EdgeBits: int(r.u16())}
	nt := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if version != archiveVersion {
		return nil, fmt.Errorf("core: unsupported archive version %d", version)
	}
	var err error
	if a.DCodec, err = pddp.NewCodec(opts.EtaD); err != nil {
		return nil, err
	}
	if a.PCodec, err = pddp.NewCodec(opts.EtaP); err != nil {
		return nil, err
	}
	// Bounding the count by the remaining bytes (a trajectory takes at
	// least its two directory counts) turns a corrupt count into a parse
	// error instead of a giant allocation.
	if 2*nt > r.remaining() {
		return nil, errTruncated
	}
	recs := make([]TrajRecord, nt) // one block: see the doc comment
	a.Trajs = make([]*TrajRecord, nt)
	var starts, refs []int
	var chunk []InstMeta // the directories are carved from shared chunks
	for j := range a.Trajs {
		tr := &recs[j]
		tr.BitLen, starts, tr.Bits = r.traj(starts[:0])
		if r.err != nil {
			return nil, r.err
		}
		n := len(starts)
		if len(chunk) < n {
			chunk = make([]InstMeta, max(n, instChunk))
		}
		tr.Insts, chunk = chunk[:n:n], chunk[n:]
		if refs, err = a.readHeads(tr, starts, refs[:0]); err != nil {
			return nil, fmt.Errorf("core: trajectory %d: %w", j, err)
		}
		a.Trajs[j] = tr
	}
	return a, nil
}

// instChunk is the number of directory entries LoadBytes allocates at
// once.
const instChunk = 128

// traj reads one trajectory's directory and payload: its bit length, the
// record starts appended to starts in write order, and the payload.
func (r *byteReader) traj(starts []int) (int, []int, []byte) {
	bitLen, ni := r.uvarint(), r.uvarint()
	if r.err == nil && (bitLen > 8*r.remaining() || ni > r.remaining()) {
		r.err = errTruncated
	}
	at := 0
	for i := 0; i < ni && r.err == nil; i++ {
		d := r.uvarint()
		if d >= bitLen-at {
			r.err = fmt.Errorf("core: instance record starts past bit length %d", bitLen)
		}
		at += d
		starts = append(starts, at)
	}
	return bitLen, starts, r.take((bitLen + 7) / 8)
}

// readHeads fills tr.NumPoints from the record's time header and the
// zeroed tr.Insts, one entry per start, from the instance heads at
// starts, which must ascend in write order (references, then
// non-references) inside the stream.  A non-reference's refPos is mapped
// to its reference's original index through refs, the references'
// original indices in write order; the grown refs is returned for reuse.
func (a *Archive) readHeads(tr *TrajRecord, starts, refs []int) ([]int, error) {
	var r bitio.Reader
	r.Reset(tr.Bits, tr.BitLen)
	_, n, err := readTimeHeader(&r)
	if err != nil {
		return refs, err
	}
	tr.NumPoints = n
	// Every record starts after the time header, so Start == 0 marks an
	// entry no head has filled yet.
	prev := r.Pos() - 1
	for k, start := range starts {
		if start <= prev || start >= tr.BitLen {
			return refs, fmt.Errorf("core: instance record at bit %d is out of order or outside the stream", start)
		}
		prev = start
		if err := r.Seek(start); err != nil {
			return refs, err
		}
		orig, isRef, p, err := a.readHead(&r)
		if err != nil {
			return refs, err
		}
		if orig < 0 || orig >= len(tr.Insts) || tr.Insts[orig].Start != 0 {
			return refs, fmt.Errorf("core: record at %d has orig %d: out of range or repeated", start, orig)
		}
		m := InstMeta{RefOrig: -1, Start: start, P: p}
		switch {
		case isRef && k != len(refs):
			return refs, fmt.Errorf("core: reference record %d follows a non-reference", orig)
		case isRef:
			refs = append(refs, orig)
		default:
			refPos, err := r.ReadCount()
			if err != nil {
				return refs, err
			}
			if refPos < 0 || refPos >= len(refs) {
				return refs, fmt.Errorf("core: record %d names reference %d of %d", orig, refPos, len(refs))
			}
			m.RefOrig = refs[refPos]
		}
		tr.Insts[orig] = m
	}
	return refs, nil
}
