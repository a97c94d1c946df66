// Package ingest adds the live write path to the UTCQ system: an
// append-only write-ahead log of raw (pre-match) GPS trajectories, and a
// background worker that drains WAL batches through probabilistic map
// matching and UTCQ compression into delta shards of a mutable store
// (internal/store), compacting accumulated deltas back into base shards.
//
// Durability contract: a trajectory is acknowledged once its WAL record is
// written and synced.  The store manifest records the WAL high-water mark
// (walApplied) transactionally with every applied batch, so after a crash
// the ingester replays exactly the acknowledged-but-unapplied suffix —
// nothing is lost, nothing is applied twice.  A torn tail record (the
// append that was in flight when the process died) fails its CRC or frame
// length and is truncated away; by definition it was never acknowledged.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"utcq/internal/faultfs"
	"utcq/internal/traj"
)

// WAL record framing (docs/FORMAT.md section 4):
//
//	file   = header record*
//	header = magic "UTCW" | version u16 | firstSeq u64 (little endian)
//	record = length u32 | crc u32 | payload
//
// firstSeq is the absolute sequence number of the file's first record:
// checkpointing (dropping records already folded into the store) rewrites
// the file with a higher firstSeq, so sequence numbers — and the store's
// walApplied high-water mark — survive truncation.  length is the payload
// byte count, crc is IEEE CRC-32 over the payload.  The payload is one
// raw trajectory prefixed with the simplification error budget (SED ε,
// internal/simplify) the record was admitted under:
//
//	eps f64 | numPoints u32 | numPoints × (x f64 | y f64 | t i64)
//
// Version 2 is the only version read or written; a log of any other
// version is refused rather than replayed.
const (
	walMagic   = "UTCW"
	walVersion = 2

	walHeaderSize = 14 // magic + version + firstSeq
	walFrameSize  = 8  // length + crc
	walPointSize  = 24 // x + y + t, 8 bytes each
	walEpsSize    = 8  // per-record error budget (f64)

	// maxWALRecord bounds a record's payload so a corrupted length field
	// fails fast instead of driving a huge allocation: 4 bytes of count
	// plus ~2.8M points.  Append enforces the same bound on the way in —
	// an oversized record must be rejected before acknowledgement, or
	// replay would treat it (and every record after it) as a torn tail.
	maxWALRecord = 1 << 26

	// MaxPoints is the largest raw trajectory one WAL record can carry.
	MaxPoints = (maxWALRecord - walEpsSize - 4) / walPointSize
)

// Record is one replayed WAL entry: the raw trajectory as acknowledged
// (post-simplification when ingest ran with ε > 0) and the SED error
// budget it was admitted under — 0 for unsimplified records.
type Record struct {
	Raw traj.RawTrajectory
	Eps float64
}

// WAL is an append-only, CRC-framed log of raw trajectories.  Append
// buffers; Sync makes everything appended so far durable — the
// acknowledgement barrier.  WAL methods are not safe for concurrent use;
// the Ingester serializes access.
type WAL struct {
	path  string
	fs    faultfs.FS // filesystem the log lives on (never nil after open)
	f     faultfs.File
	buf   []byte // pending appended bytes not yet written through
	first uint64 // absolute sequence of the file's first record
	count uint64 // records in the file (durable + buffered)
	size  int64  // file size once buf is flushed

	// failed latches the first write/sync error: once the file and the
	// in-memory sequence may disagree, every later operation refuses
	// instead of acknowledging records that might not be durable.  The
	// latch errors wrap ErrReadOnly so callers (the Ingester, the server)
	// can recognize the condition and degrade to read-only serving.
	failed error
}

// ErrReadOnly marks the WAL-failed latch: a write or sync error left the
// on-disk log and the in-memory sequence potentially out of agreement, so
// every later mutation refuses rather than acknowledge records that might
// not be durable.  Reads are unaffected — a server seeing this keeps
// serving queries and rejects writes with a retryable status.
var ErrReadOnly = errors.New("ingest: write path is read-only after a WAL failure")

// errFailed wraps the latch for return: callers match ErrReadOnly, the
// message carries the original fault.
func (w *WAL) errFailed() error {
	return fmt.Errorf("%w: %v", ErrReadOnly, w.failed)
}

// Failed returns the latched WAL error (nil while healthy).
func (w *WAL) Failed() error { return w.failed }

// walHeader frames a header with the given first sequence.
func walHeader(firstSeq uint64) [walHeaderSize]byte {
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint16(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[6:], firstSeq)
	return hdr
}

// OpenWAL opens (or creates) the log at path and replays it: every record
// with a valid frame and checksum is returned in append order; the first
// record's absolute sequence number is WAL.FirstSeq (0 for a log never
// checkpointed).  A torn or corrupt tail — the footprint of a crash
// mid-append — is truncated away so the log ends on a record boundary and
// new appends extend a valid file.
func OpenWAL(path string) (*WAL, []Record, error) {
	return OpenWALIn(nil, path)
}

// OpenWALIn is OpenWAL through an explicit filesystem (nil: the real one);
// fault-injection tests substitute faultfs.MemFS or an Injector.
func OpenWALIn(fsys faultfs.FS, path string) (*WAL, []Record, error) {
	fsys = faultfs.Resolve(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{path: path, fs: fsys, f: f}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(data) == 0 {
		hdr := walHeader(0)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		// Make the log's directory entry durable before anything is
		// acknowledged against it: fsyncing a newly created file persists
		// its content, not its name — without the directory sync a power
		// cut could reboot into a directory without the log, silently
		// dropping every record acknowledged since.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.size = walHeaderSize
		return w, nil, nil
	}
	first, recs, good, err := DecodeWAL(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	if good < int64(len(data)) {
		// Torn tail: drop the partial record so appends resume cleanly.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.size = good
	w.first = first
	w.count = uint64(len(recs))
	return w, recs, nil
}

// DecodeWAL parses a WAL image, returning the first record's absolute
// sequence number, the complete records, and the byte offset at which the
// valid prefix ends.  Truncated frames, oversized lengths and checksum
// mismatches end the scan (they mark the torn tail); only a bad header —
// a wrong magic or a version other than the current one — is an error,
// because then the file is not a log this build can read and truncating
// it would destroy someone else's data.
func DecodeWAL(data []byte) (uint64, []Record, int64, error) {
	if len(data) < walHeaderSize || string(data[:4]) != walMagic {
		return 0, nil, 0, errors.New("not a UTCQ write-ahead log")
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != walVersion {
		return 0, nil, 0, fmt.Errorf("unsupported WAL version %d", version)
	}
	firstSeq := binary.LittleEndian.Uint64(data[6:14])
	var recs []Record
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < walFrameSize {
			return firstSeq, recs, off, nil
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxWALRecord || int(length) > len(rest)-walFrameSize {
			return firstSeq, recs, off, nil
		}
		payload := rest[walFrameSize : walFrameSize+int(length)]
		if crc32.ChecksumIEEE(payload) != crc {
			return firstSeq, recs, off, nil
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			// The checksum matched but the payload is structurally invalid:
			// this is not a torn write, it is corruption (or a foreign
			// record) that fsync promised us could not happen.  Stop here
			// and let the caller keep the valid prefix.
			return firstSeq, recs, off, nil
		}
		recs = append(recs, rec)
		off += walFrameSize + int64(length)
	}
}

// encodeRecord serializes one record payload.
func encodeRecord(rec Record) []byte {
	out := make([]byte, walEpsSize+4+walPointSize*len(rec.Raw.Points))
	binary.LittleEndian.PutUint64(out, math.Float64bits(rec.Eps))
	binary.LittleEndian.PutUint32(out[walEpsSize:], uint32(len(rec.Raw.Points)))
	o := walEpsSize + 4
	for _, p := range rec.Raw.Points {
		binary.LittleEndian.PutUint64(out[o:], uint64(int64FromF64(p.X)))
		binary.LittleEndian.PutUint64(out[o+8:], uint64(int64FromF64(p.Y)))
		binary.LittleEndian.PutUint64(out[o+16:], uint64(p.T))
		o += walPointSize
	}
	return out
}

// decodeRecord parses one payload; ok is false on any structural
// mismatch.
func decodeRecord(payload []byte) (Record, bool) {
	if len(payload) < walEpsSize+4 {
		return Record{}, false
	}
	rec := Record{Eps: math.Float64frombits(binary.LittleEndian.Uint64(payload))}
	payload = payload[walEpsSize:]
	n := binary.LittleEndian.Uint32(payload)
	if int(n) != (len(payload)-4)/walPointSize || len(payload) != 4+walPointSize*int(n) {
		return Record{}, false
	}
	rec.Raw = traj.RawTrajectory{Points: make([]traj.RawPoint, n)}
	o := 4
	for i := range rec.Raw.Points {
		rec.Raw.Points[i] = traj.RawPoint{
			X: f64FromInt64(int64(binary.LittleEndian.Uint64(payload[o:]))),
			Y: f64FromInt64(int64(binary.LittleEndian.Uint64(payload[o+8:]))),
			T: int64(binary.LittleEndian.Uint64(payload[o+16:])),
		}
		o += walPointSize
	}
	return rec, true
}

// Append adds one record to the log buffer and returns its sequence number
// (its zero-based index in the log).  eps is the SED error budget the
// trajectory was simplified under (0: unsimplified).  The record is
// acknowledged — and must be reported to the submitter as accepted — only
// after a Sync.
func (w *WAL) Append(raw traj.RawTrajectory, eps float64) (uint64, error) {
	if w.f == nil {
		return 0, errors.New("ingest: WAL is closed")
	}
	if w.failed != nil {
		return 0, w.errFailed()
	}
	if len(raw.Points) > MaxPoints {
		return 0, fmt.Errorf("ingest: trajectory of %d points exceeds the WAL record limit (%d)", len(raw.Points), MaxPoints)
	}
	payload := encodeRecord(Record{Raw: raw, Eps: eps})
	var frame [walFrameSize]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, frame[:]...)
	w.buf = append(w.buf, payload...)
	seq := w.first + w.count
	w.count++
	return seq, nil
}

// Sync writes the buffered records through and fsyncs the file: the
// acknowledgement barrier.  After Sync returns, every appended record
// survives a crash.
func (w *WAL) Sync() error {
	if w.f == nil {
		return errors.New("ingest: WAL is closed")
	}
	if w.failed != nil {
		return w.errFailed()
	}
	if len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		w.size += int64(n)
		if err != nil {
			// A short write leaves a torn tail; recovery truncates it, and
			// the unsynced records were never acknowledged.
			w.buf = w.buf[:0]
			w.failed = err
			return err
		}
		w.buf = w.buf[:0]
	}
	if err := w.f.Sync(); err != nil {
		w.failed = err
		return err
	}
	return nil
}

// Count returns the next sequence number: the total number of records
// ever acknowledged through this log, including records a checkpoint has
// since dropped and appends still buffered.
func (w *WAL) Count() uint64 { return w.first + w.count }

// FirstSeq returns the absolute sequence of the file's first record (the
// checkpoint position; records below it have been dropped).
func (w *WAL) FirstSeq() uint64 { return w.first }

// Size returns the log's byte size once buffered records are flushed.
func (w *WAL) Size() int64 { return w.size + int64(len(w.buf)) }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Checkpoint drops every record with sequence below upTo — records the
// store manifest confirms applied (walApplied) — by atomically rewriting
// the log with firstSeq = upTo: write-temp, fsync, rename, reopen.  This
// bounds the log to the unapplied backlog instead of the lifetime ingest
// volume.  upTo values at or below FirstSeq are no-ops; values beyond
// Count are rejected (they would drop unacknowledged state).
func (w *WAL) Checkpoint(upTo uint64) error {
	if w.f == nil {
		return errors.New("ingest: WAL is closed")
	}
	if w.failed != nil {
		return w.errFailed()
	}
	if upTo <= w.first {
		return nil
	}
	if upTo > w.first+w.count {
		return fmt.Errorf("ingest: checkpoint %d beyond last acknowledged record %d", upTo, w.first+w.count)
	}
	if err := w.Sync(); err != nil {
		return err
	}
	var br io.Reader
	if upTo == w.first+w.count {
		// Full checkpoint — the retained suffix is empty (the common case:
		// the ingester only checkpoints when every record is applied).  No
		// scan of the old log is needed; the replacement is just a header.
		br = bytes.NewReader(nil)
	} else {
		// Stream the retained suffix into the replacement file — the log
		// is never loaded into memory whole, so a partial checkpoint costs
		// sequential I/O, not allocation.
		src, err := w.fs.Open(w.path)
		if err != nil {
			return err
		}
		defer src.Close()
		bsrc := bufio.NewReaderSize(src, 1<<20)
		if _, err := bsrc.Discard(walHeaderSize); err != nil {
			return err
		}
		var frame [walFrameSize]byte
		for i := uint64(0); i < upTo-w.first; i++ {
			if _, err := io.ReadFull(bsrc, frame[:]); err != nil {
				return err
			}
			if _, err := bsrc.Discard(int(binary.LittleEndian.Uint32(frame[:4]))); err != nil {
				return err
			}
		}
		br = bsrc
	}
	tmpPath := w.path + ".tmp"
	var copied int64
	err := faultfs.WriteFile(w.fs, tmpPath, func(tmp io.Writer) error {
		hdr := walHeader(upTo)
		_, err := tmp.Write(hdr[:])
		if err == nil {
			copied, err = io.Copy(tmp, br)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := w.fs.Rename(tmpPath, w.path); err != nil {
		w.fs.Remove(tmpPath)
		return err
	}
	// The rename must be durable before the dropped records are forgotten:
	// an unsynced rename can un-happen at power loss, rebooting into the
	// pre-checkpoint log — harmless — or, worse, into a directory state
	// with neither name if the metadata journal split the operation.
	if err := w.fs.SyncDir(filepath.Dir(w.path)); err != nil {
		w.failed = err
		return err
	}
	f, err := w.fs.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rewritten log is valid on disk but we lost our handle; latch
		// so nothing is acknowledged against a file we cannot append to.
		w.failed = err
		return err
	}
	newSize := int64(walHeaderSize) + copied
	if _, err := f.Seek(newSize, io.SeekStart); err != nil {
		f.Close()
		w.failed = err
		return err
	}
	w.f.Close()
	w.f = f
	w.count -= upTo - w.first
	w.first = upTo
	w.size = newSize
	return nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// int64FromF64 / f64FromInt64 move float bit patterns exactly (raw
// coordinates round-trip bit-for-bit through the log).
func int64FromF64(v float64) int64 { return int64(math.Float64bits(v)) }
func f64FromInt64(v int64) float64 { return math.Float64frombits(uint64(v)) }
