package ingest

// Replication hooks: the leader ships its CRC-framed WAL to followers
// over HTTP (internal/cluster), and a follower feeds the received
// records back through its own Ingester.  The leader's fsync-ack stays
// the only commit point — ShipFrom reads the durable file image, never
// the in-memory append buffer, so a record is shipped only after the
// leader could have acknowledged it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"utcq/internal/faultfs"
	"utcq/internal/traj"
)

// ErrWALTruncated marks a replication position that was checkpointed
// away on the leader (a compaction advanced the log's first sequence
// past it).  The follower cannot catch up from the log alone and must
// re-snapshot from the leader's manifest.
var ErrWALTruncated = errors.New("ingest: WAL position checkpointed away")

// ShipBatch is a contiguous run of durable WAL records starting at
// absolute sequence From.  Version is the payload layout the records
// travel in on the wire, so a follower can refuse one it cannot read.
type ShipBatch struct {
	From    uint64
	Version uint16
	Records []Record
}

// NextSeq returns the sequence number the next appended record will
// get — a follower's pull cursor after replaying everything it has.
func (ing *Ingester) NextSeq() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.wal.Count()
}

// ShipFrom returns up to maxRecords durable records starting at
// absolute sequence from (maxRecords <= 0: no bound).  It re-reads the
// log file rather than trusting in-memory state: the file holds exactly
// the fsync-acknowledged prefix (plus at worst a torn tail, which
// decoding drops), so an appended-but-unsynced record is never shipped.
// A from before the log's first record returns ErrWALTruncated; a from
// beyond the durable end returns an empty batch at that position.
func (ing *Ingester) ShipFrom(from uint64, maxRecords int) (ShipBatch, error) {
	ing.mu.Lock()
	w := ing.wal
	if w == nil {
		ing.mu.Unlock()
		return ShipBatch{}, errors.New("ingest: WAL is closed")
	}
	fsys, path := w.fs, w.path
	ing.mu.Unlock()

	// Read outside the lock: an atomic checkpoint rename gives either
	// the old or the new image (both valid), and a concurrent append's
	// partial write is truncated away by the image decoder.
	data, err := fsys.ReadFile(path)
	if err != nil {
		return ShipBatch{}, err
	}
	first, recs, _, err := DecodeWAL(data)
	if err != nil {
		return ShipBatch{}, fmt.Errorf("ingest: %s: %w", path, err)
	}
	if from < first {
		return ShipBatch{}, fmt.Errorf("%w: requested %d, log starts at %d", ErrWALTruncated, from, first)
	}
	end := first + uint64(len(recs))
	if from >= end {
		return ShipBatch{From: from, Version: walVersion}, nil
	}
	recs = recs[from-first:]
	if maxRecords > 0 && len(recs) > maxRecords {
		recs = recs[:maxRecords]
	}
	return ShipBatch{From: from, Version: walVersion, Records: recs}, nil
}

// ReplicateBatch appends records received from the leader, starting at
// absolute sequence from, to the follower's own WAL and pending queue.
// Records the follower already has (from < its next sequence) are
// skipped — re-delivery is idempotent — while a gap (from beyond the
// next sequence) is an error, since replaying out of order would
// diverge from the leader.  The records are appended verbatim: the
// leader already simplified them at admission (rec.Eps records the
// budget), so the follower must not simplify again.  Returns the
// follower's next sequence after the append.
func (ing *Ingester) ReplicateBatch(from uint64, recs []Record) (uint64, error) {
	for i, rec := range recs {
		if err := ValidateRaw(rec.Raw); err != nil {
			return 0, fmt.Errorf("replicated record %d: %w", i, err)
		}
	}
	ing.mu.Lock()
	next := ing.wal.Count()
	if from > next {
		ing.mu.Unlock()
		return 0, fmt.Errorf("ingest: replication gap: batch starts at %d but the log ends at %d", from, next)
	}
	if skip := next - from; skip >= uint64(len(recs)) {
		ing.mu.Unlock()
		return next, nil
	} else {
		recs = recs[skip:]
	}
	var err error
	raws := make([]traj.RawTrajectory, 0, len(recs))
	for _, rec := range recs {
		if _, err = ing.wal.Append(rec.Raw, rec.Eps); err != nil {
			break
		}
		raws = append(raws, rec.Raw)
	}
	if err == nil && !ing.opts.NoSync {
		err = ing.wal.Sync()
	}
	if err == nil {
		ing.pending = append(ing.pending, raws...)
	}
	full := len(ing.pending) >= ing.opts.BatchSize
	next = ing.wal.Count()
	ing.mu.Unlock()
	if err != nil {
		return 0, err
	}
	var points int
	for _, raw := range raws {
		points += len(raw.Points)
	}
	ing.pointsIn.Add(int64(points))
	ing.pointsKept.Add(int64(points))
	if full {
		select {
		case ing.wake <- struct{}{}:
		default:
		}
	}
	return next, nil
}

// CreateWAL writes a fresh, empty log at path whose first sequence is
// firstSeq, fsynced along with its directory entry.  A follower that
// bootstrapped from a leader snapshot at walApplied=N creates its log
// with firstSeq=N so the pull cursor lines up with the leader's
// numbering.
func CreateWAL(fsys faultfs.FS, path string, firstSeq uint64) error {
	hdr := walHeader(firstSeq)
	if err := faultfs.WriteFile(fsys, path, faultfs.Bytes(hdr[:])); err != nil {
		return err
	}
	return faultfs.Resolve(fsys).SyncDir(filepath.Dir(path))
}

// EncodeFrames serializes records for the replication stream in the
// WAL's own frame layout (docs/FORMAT.md §4: u32 length, u32 CRC32-IEEE
// of the payload, payload) — a follower can verify integrity with the
// same code that replays a local log.
func EncodeFrames(recs []Record) []byte {
	var out []byte
	for _, rec := range recs {
		payload := encodeRecord(rec)
		var frame [walFrameSize]byte
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		out = append(out, frame[:]...)
		out = append(out, payload...)
	}
	return out
}

// DecodeFrames parses a replication stream encoded by EncodeFrames in
// payload layout version.  Unlike WAL replay — where a torn tail is an
// expected crash footprint and is silently dropped — a short, oversized
// or checksum-failing frame here is a transport error and fails the
// whole batch, and so does any version other than the current one.
func DecodeFrames(data []byte, version uint16) ([]Record, error) {
	if version != walVersion {
		return nil, fmt.Errorf("ingest: unsupported replication stream version %d", version)
	}
	var recs []Record
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < walFrameSize {
			return nil, fmt.Errorf("ingest: truncated replication frame at byte %d", off)
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxWALRecord || int(length) > len(rest)-walFrameSize {
			return nil, fmt.Errorf("ingest: oversized replication frame at byte %d", off)
		}
		payload := rest[walFrameSize : walFrameSize+int(length)]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("ingest: replication frame checksum mismatch at byte %d", off)
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return nil, fmt.Errorf("ingest: malformed replication record at byte %d", off)
		}
		recs = append(recs, rec)
		off += walFrameSize + int(length)
	}
	return recs, nil
}
