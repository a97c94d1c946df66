package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"utcq/internal/traj"
)

// walImage frames payloads into a syntactically valid WAL for seeding.
func walImage(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	hdr := walHeader(0)
	buf.Write(hdr[:])
	var frame [walFrameSize]byte
	for _, p := range payloads {
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(p))
		buf.Write(frame[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// recordsEqual compares replayed records bit-exactly: float fields go
// through Float64bits so a fuzzer-crafted NaN payload still compares
// equal to its own re-decode (== on NaN is always false).
func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Eps) != math.Float64bits(b[i].Eps) ||
			len(a[i].Raw.Points) != len(b[i].Raw.Points) {
			return false
		}
		for k, p := range a[i].Raw.Points {
			q := b[i].Raw.Points[k]
			if math.Float64bits(p.X) != math.Float64bits(q.X) ||
				math.Float64bits(p.Y) != math.Float64bits(q.Y) || p.T != q.T {
				return false
			}
		}
	}
	return true
}

// FuzzWALReplay feeds arbitrary bytes through WAL recovery.  Whatever the
// input, replay must not panic, must return a prefix that re-decodes to
// the same records (recovery is idempotent), and after OpenWAL truncates
// the torn tail the log must accept appends and replay them.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("UTCW"))
	f.Add(walImage())
	p1 := encodeRecord(Record{Raw: randomRawForFuzz(3), Eps: 12.5})
	p2 := encodeRecord(Record{Raw: randomRawForFuzz(7)})
	valid := walImage(p1, p2)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])            // torn tail
	f.Add(append(valid, 0xde, 0xad, 0xbe)) // trailing garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(corrupt)
	huge := walImage(nil)
	binary.LittleEndian.PutUint32(huge[walHeaderSize:], 1<<30) // absurd length field
	f.Add(huge)
	checkpointed := walImage(p2)
	binary.LittleEndian.PutUint64(checkpointed[6:], 5) // firstSeq past 0
	f.Add(checkpointed)

	f.Fuzz(func(t *testing.T, data []byte) {
		first, recs, good, err := DecodeWAL(data)
		if err != nil {
			return // not a WAL at all; nothing to recover
		}
		if good < walHeaderSize || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [%d, %d]", good, walHeaderSize, len(data))
		}
		// Idempotence: decoding the valid prefix reproduces the records.
		first2, recs2, good2, err := DecodeWAL(data[:good])
		if err != nil || first2 != first || good2 != good || !recordsEqual(recs2, recs) {
			t.Fatalf("re-decode of valid prefix diverged: %d vs %d records, offset %d vs %d, %v",
				len(recs2), len(recs), good2, good, err)
		}
		// OpenWAL on the same image recovers the same records and leaves an
		// appendable log.
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs3, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("OpenWAL rejected an image DecodeWAL accepted: %v", err)
		}
		if !recordsEqual(recs3, recs) {
			t.Fatalf("OpenWAL recovered %d records, DecodeWAL %d", len(recs3), len(recs))
		}
		extra := randomRawForFuzz(2)
		if _, err := w.Append(extra, 3.25); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs4, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
		if len(recs4) != len(recs)+1 || !recordsEqual(recs4[len(recs):], []Record{{Raw: extra, Eps: 3.25}}) {
			t.Fatalf("append after recovery not replayed (%d vs %d records)", len(recs4), len(recs)+1)
		}
	})
}

// randomRawForFuzz builds a small deterministic raw trajectory.
func randomRawForFuzz(n int) traj.RawTrajectory {
	raw := traj.RawTrajectory{Points: make([]traj.RawPoint, n)}
	for i := range raw.Points {
		raw.Points[i] = traj.RawPoint{X: float64(i) * 13.5, Y: float64(i) * -7.25, T: int64(10 * (i + 1))}
	}
	return raw
}
