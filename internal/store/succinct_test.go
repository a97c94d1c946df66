package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"utcq/internal/gen"
)

// TestColdOpenTemporalLaziness pins the sidecar's scaling property: an eager
// open decodes zero temporal sections regardless of how many records the
// store holds (4x the trajectories, still zero), and a single query
// forces exactly the one section it touches.  This is the counter-level
// assertion behind "cold open no longer scales with temporal-entry
// count" — the open-time work is independent of temporal volume.
func TestColdOpenTemporalLaziness(t *testing.T) {
	for _, n := range []int{30, 120} {
		bc := buildReference(t, gen.CD(), n, 61)
		dir := saveStore(t, buildStore(t, bc, 3, AssignHash))
		s, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.SidecarRebuilds != 0 {
			t.Fatalf("n=%d: eager open rebuilt %d sidecars", n, st.SidecarRebuilds)
		}
		if st.Succinct.TemporalSectionsForced != 0 {
			t.Fatalf("n=%d: eager open forced %d temporal sections, want 0", n, st.Succinct.TemporalSectionsForced)
		}
		if st.Succinct.SuccinctBytes == 0 {
			t.Fatalf("n=%d: no resident succinct bytes after an open", n)
		}

		// One Where touches exactly one trajectory's temporal section,
		// independent of store size.
		T := bc.ds.Trajectories[0].T
		if _, err := s.Where(0, (T[0]+T[len(T)-1])/2, 0); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Succinct.TemporalSectionsForced; got != 1 {
			t.Fatalf("n=%d: one query forced %d temporal sections, want 1", n, got)
		}
	}
}

// TestSidecarV2CorruptionSweepRebuilds sweeps byte flips and truncations
// across a v6 sidecar file: every mutation must be caught (manifest CRC
// or section bounds), silently rebuilt from the archive, and answer the
// full query workload identically to the reference engine.
func TestSidecarV2CorruptionSweepRebuilds(t *testing.T) {
	bc := buildReference(t, gen.CD(), 24, 43)
	dir := saveStore(t, buildStore(t, bc, 2, AssignHash))
	path := filepath.Join(dir, sidecarFile(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[4:]); v != 6 {
		t.Fatalf("persisted sidecar version = %d, want 6", v)
	}

	check := func(t *testing.T, mut []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.SidecarRebuilds != 1 {
			t.Fatalf("rebuilds = %d, want 1 (loads=%d)", st.SidecarRebuilds, st.SidecarLoads)
		}
		checkStoreMatchesEngine(t, bc, s, 47)
	}

	// Byte flips spread across the file: header, temporal directory,
	// bitvectors, bucket blobs.
	step := len(raw)/6 + 1
	for off := 0; off < len(raw); off += step {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		check(t, mut)
	}
	// Truncations, including mid-directory and mid-blob cuts.
	for _, keep := range []int{0, 10, 36 /* header boundary */, len(raw) / 3, len(raw) - 1} {
		check(t, append([]byte(nil), raw[:keep]...))
	}
}

// TestSidecarV4Refused pins the sidecar version policy at the store: a
// saved store whose sidecars are relabelled a retired version (4, or 5,
// the last before group tables), with checksums the manifest vouches
// for, opens by rebuilding every shard's index from its archive and
// answers like the reference engine.
func TestSidecarV4Refused(t *testing.T) {
	const shards = 3
	bc := buildReference(t, gen.CD(), 24, 71)
	for _, version := range []uint16{4, 5} {
		dir := saveStore(t, buildStore(t, bc, shards, AssignHash))
		mpath := filepath.Join(dir, ManifestName)
		mraw, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(bytes.NewReader(mraw))
		if err != nil {
			t.Fatal(err)
		}
		for i := range man.entries {
			e := &man.entries[i]
			path := filepath.Join(dir, sidecarFile(e.id))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint16(raw[4:], version)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			e.sidecarCRC = crc32.ChecksumIEEE(raw)
		}
		var buf bytes.Buffer
		if err := man.write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.SidecarRebuilds != shards || st.SidecarLoads != 0 {
			t.Fatalf("v%d: sidecar loads=%d rebuilds=%d, want 0/%d", version, st.SidecarLoads, st.SidecarRebuilds, shards)
		}
		checkStoreMatchesEngine(t, bc, s, 73)
	}
}
