package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"utcq/internal/traj"
)

// randomRaw builds one raw trajectory with exact-representable randomness.
func randomRaw(rng *rand.Rand) traj.RawTrajectory {
	n := 2 + rng.Intn(20)
	raw := traj.RawTrajectory{Points: make([]traj.RawPoint, n)}
	t := int64(rng.Intn(10000))
	for i := range raw.Points {
		raw.Points[i] = traj.RawPoint{X: rng.NormFloat64() * 1e3, Y: rng.NormFloat64() * 1e3, T: t}
		t += 1 + int64(rng.Intn(60))
	}
	return raw
}

// randomRec pairs a random raw with a varying (sometimes zero) error
// budget so the v2 eps field round-trips through every test.
func randomRec(rng *rand.Rand) Record {
	rec := Record{Raw: randomRaw(rng)}
	if rng.Intn(2) == 0 {
		rec.Eps = float64(rng.Intn(100)) / 4
	}
	return rec
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || w.Count() != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	rng := rand.New(rand.NewSource(1))
	var want []Record
	for i := 0; i < 40; i++ {
		rec := randomRec(rng)
		seq, err := w.Append(rec.Raw, rec.Eps)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("record %d got sequence %d", i, seq)
		}
		want = append(want, rec)
		if i%7 == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay returned %d records, want %d (or contents differ)", len(got), len(want))
	}
	if w2.Count() != uint64(len(want)) {
		t.Fatalf("Count = %d, want %d", w2.Count(), len(want))
	}
	// Appends resume with the next sequence number.
	seq, err := w2.Append(randomRaw(rng), 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want)) {
		t.Fatalf("post-replay append got sequence %d, want %d", seq, len(want))
	}
}

// TestWALTornTailRecovery simulates a crash mid-append: for every possible
// truncation point inside the last record's frame, replay must recover
// every earlier record, drop the torn tail, and leave a log that accepts
// new appends.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var want []Record
	for i := 0; i < 5; i++ {
		rec := randomRec(rng)
		if _, err := w.Append(rec.Raw, rec.Eps); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// goodEnd = end of record 3 (the prefix that must survive).
	_, _, goodEnd, err := DecodeWAL(full)
	if err != nil || goodEnd != int64(len(full)) {
		t.Fatalf("full log does not decode cleanly: %d of %d, %v", goodEnd, len(full), err)
	}
	lastStart := int(goodEnd)
	for lastStart > walHeaderSize {
		_, recs, end, _ := DecodeWAL(full[:lastStart-1])
		if len(recs) == 4 {
			lastStart = int(end)
			break
		}
		lastStart--
	}

	for cut := lastStart; cut < len(full); cut++ {
		p := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tw, recs, err := OpenWAL(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(recs, want[:4]) {
			t.Fatalf("cut %d: recovered %d records, want 4", cut, len(recs))
		}
		// The torn tail is gone: a new append lands on a record boundary
		// and the log replays cleanly afterwards.
		extra := randomRec(rng)
		if _, err := tw.Append(extra.Raw, extra.Eps); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := OpenWAL(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != 5 || !reflect.DeepEqual(recs2[4], extra) {
			t.Fatalf("cut %d: post-recovery append not replayed", cut)
		}
	}
}

// TestWALCorruptRecordDropped flips payload bytes of the tail record: the
// CRC must reject it and recovery must keep the prefix.
func TestWALCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []Record
	for i := 0; i < 4; i++ {
		rec := randomRec(rng)
		if _, err := w.Append(rec.Raw, rec.Eps); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), full...)
	mut[len(mut)-3] ^= 0xff
	p := filepath.Join(dir, "corrupt.wal")
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	cw, recs, err := OpenWAL(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	if !reflect.DeepEqual(recs, want[:3]) {
		t.Fatalf("recovered %d records after corruption, want 3", len(recs))
	}
}

// TestWALCheckpoint covers log truncation: records below the checkpoint
// drop, sequence numbers survive, and the rewritten log replays cleanly.
func TestWALCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var want []Record
	for i := 0; i < 10; i++ {
		rec := randomRec(rng)
		if _, err := w.Append(rec.Raw, rec.Eps); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	sizeBefore := w.Size()
	if err := w.Checkpoint(4); err != nil {
		t.Fatal(err)
	}
	if w.FirstSeq() != 4 || w.Count() != 10 {
		t.Fatalf("after checkpoint: first %d count %d, want 4 and 10", w.FirstSeq(), w.Count())
	}
	if w.Size() >= sizeBefore {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", sizeBefore, w.Size())
	}
	// No-op and out-of-range checkpoints.
	if err := w.Checkpoint(2); err != nil {
		t.Fatalf("no-op checkpoint errored: %v", err)
	}
	if err := w.Checkpoint(11); err == nil {
		t.Fatal("checkpoint beyond the last acknowledged record succeeded")
	}
	// Appends continue with preserved numbering.
	extra := randomRec(rng)
	seq, err := w.Append(extra.Raw, extra.Eps)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("post-checkpoint append got sequence %d, want 10", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.FirstSeq() != 4 || w2.Count() != 11 {
		t.Fatalf("reopened: first %d count %d, want 4 and 11", w2.FirstSeq(), w2.Count())
	}
	want = append(want[4:], extra)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("reopened log replays %d records, want %d (suffix + new append)", len(recs), len(want))
	}
	// Checkpoint everything: only the header remains.
	if err := w2.Checkpoint(11); err != nil {
		t.Fatal(err)
	}
	if w2.Size() != walHeaderSize {
		t.Fatalf("fully checkpointed log is %d bytes, want %d", w2.Size(), walHeaderSize)
	}
}

// TestWALRejectsForeignFile refuses to truncate files that are not WALs.
func TestWALRejectsForeignFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "notawal")
	if err := os.WriteFile(p, []byte("definitely not a UTCW file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(p); err == nil {
		t.Fatal("opened a non-WAL file")
	}
	data, err := os.ReadFile(p)
	if err != nil || string(data) != "definitely not a UTCW file" {
		t.Fatalf("OpenWAL modified a foreign file: %q, %v", data, err)
	}
}

// TestWALVersion1Refused pins the version policy: a version-1 log (the
// pre-error-budget layout) is refused with a versioned error by OpenWAL
// and DecodeWAL, which leave the file untouched, and a version-1
// replication stream is refused by DecodeFrames.
func TestWALVersion1Refused(t *testing.T) {
	hdr := walHeader(0)
	binary.LittleEndian.PutUint16(hdr[4:], 1)
	// One v1 record: numPoints u32 and the points, no eps field.
	payload := encodeRecord(Record{Raw: randomRaw(rand.New(rand.NewSource(21)))})[walEpsSize:]
	var frame [walFrameSize]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	img := append(append(append([]byte(nil), hdr[:]...), frame[:]...), payload...)

	const want = "unsupported WAL version 1"
	if _, _, _, err := DecodeWAL(img); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeWAL(v1) = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenWAL(v1) = %v, want %q", err, want)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, img) {
		t.Fatalf("OpenWAL modified a refused v1 log: %d bytes, %v", len(data), err)
	}
	if _, err := DecodeFrames(img[walHeaderSize:], 1); err == nil ||
		!strings.Contains(err.Error(), "unsupported replication stream version 1") {
		t.Fatalf("DecodeFrames(v1) = %v", err)
	}
}
