package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"utcq/internal/faultfs"
	"utcq/internal/gen"
	"utcq/internal/mmapio"
)

// saveStore persists a freshly built store and returns its directory.
func saveStore(t *testing.T, s *Store) string {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreMmapHeapIdentical is the zero-copy correctness property: a
// store opened through the mmap path and one opened through the heap
// fallback answer every query exactly like the single-archive reference
// engine, and both serve every shard's index from the persisted sidecar
// without a rebuild.
func TestStoreMmapHeapIdentical(t *testing.T) {
	profiles := []gen.Profile{gen.DK(), gen.CD(), gen.HZ()}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bc := buildReference(t, p, 30, 17)
			dir := saveStore(t, buildStore(t, bc, 3, AssignHash))
			for _, mode := range []string{"mmap", "heap"} {
				mode := mode
				t.Run(mode, func(t *testing.T) {
					opts := OpenOptions{Eager: true}
					if mode == "heap" {
						// A non-OS filesystem has no file to map, so
						// every shard is read onto the heap.
						opts.FS = faultfs.NewInjector(faultfs.OS)
					}
					s, err := Open(dir, bc.ds.Graph, opts)
					if err != nil {
						t.Fatal(err)
					}
					st := s.Stats()
					if st.SidecarLoads != int64(s.NumShards()) || st.SidecarRebuilds != 0 {
						t.Fatalf("sidecar loads=%d rebuilds=%d, want %d/0",
							st.SidecarLoads, st.SidecarRebuilds, s.NumShards())
					}
					// MappedBytes is a process-wide gauge, so only the
					// positive direction is assertable per subtest.
					if mode == "mmap" && st.MappedBytes == 0 {
						t.Error("eagerly opened store reports no mapped bytes")
					}
					checkStoreMatchesEngine(t, bc, s, 23)
				})
			}
		})
	}
}

// TestSidecarCorruptRebuild flips one byte of a sidecar: the checksum
// mismatch must silently fall back to rebuilding that shard's index —
// identical query results, no error, no panic.
func TestSidecarCorruptRebuild(t *testing.T) {
	bc := buildReference(t, gen.CD(), 30, 19)
	dir := saveStore(t, buildStore(t, bc, 3, AssignHash))
	path := filepath.Join(dir, sidecarFile(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SidecarRebuilds != 1 || st.SidecarLoads != 2 {
		t.Fatalf("sidecar loads=%d rebuilds=%d, want 2/1", st.SidecarLoads, st.SidecarRebuilds)
	}
	checkStoreMatchesEngine(t, bc, s, 29)
}

// TestMissingSidecarRebuilds deletes a sidecar outright: the open must
// rebuild (not fail), covering stores written before sidecars existed.
func TestMissingSidecarRebuilds(t *testing.T) {
	bc := buildReference(t, gen.CD(), 20, 31)
	dir := saveStore(t, buildStore(t, bc, 2, AssignHash))
	if err := os.Remove(filepath.Join(dir, sidecarFile(0))); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SidecarRebuilds != 1 {
		t.Fatalf("sidecar rebuilds = %d, want 1", st.SidecarRebuilds)
	}
	checkStoreMatchesEngine(t, bc, s, 37)
}

// TestOpenRejectsTruncatedShard truncates a shard archive: the manifest
// records its exact length, so the open fails fast with a descriptive
// error instead of decoding garbage.
func TestOpenRejectsTruncatedShard(t *testing.T) {
	bc := buildReference(t, gen.CD(), 20, 41)
	dir := saveStore(t, buildStore(t, bc, 2, AssignHash))
	path := filepath.Join(dir, shardFile(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, bc.ds.Graph, OpenOptions{Eager: true})
	if err == nil {
		t.Fatal("open succeeded on a truncated shard file")
	}
	if !strings.Contains(err.Error(), "manifest records") {
		t.Fatalf("error does not name the manifest-recorded size: %v", err)
	}
}

// TestShardArchiveV1Refused relabels one shard archive of a saved store
// to the retired archive version 1.  An eager open must fail with the
// archive's versioned error; a lazy open succeeds, and the first query on
// that shard returns the same error, with no panic and no index rebuild,
// while the other shards keep answering.
func TestShardArchiveV1Refused(t *testing.T) {
	bc := buildReference(t, gen.CD(), 20, 43)
	dir := saveStore(t, buildStore(t, bc, 2, AssignHash))
	path := filepath.Join(dir, shardFile(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:], 1) // after the "UTCQ" magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "unsupported archive version 1"
	if _, err := Open(dir, bc.ds.Graph, OpenOptions{Eager: true}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("eager open: %v, want an error naming %q", err, want)
	}
	s, err := Open(dir, bc.ds.Graph, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refused, other := 0, 0
	for j, u := range bc.ds.Trajectories {
		_, err := s.Where(j, u.T[0], 0)
		switch {
		case s.ShardOf(j) != 0 && err != nil:
			t.Fatalf("trajectory %d on an intact shard: %v", j, err)
		case s.ShardOf(j) != 0:
			other++
		case refused == 0 && (err == nil || !strings.Contains(err.Error(), want)):
			t.Fatalf("first query on the relabelled shard: %v, want an error naming %q", err, want)
		case err == nil:
			t.Fatalf("trajectory %d on the relabelled shard answered", j)
		default:
			refused++
		}
	}
	if refused == 0 || other == 0 {
		t.Fatalf("%d queries on the relabelled shard, %d on the other", refused, other)
	}
	if st := s.Stats(); st.SidecarRebuilds != 0 {
		t.Fatalf("%d index rebuilds from a refused archive", st.SidecarRebuilds)
	}
}

// TestMappedDeltasSurviveCompactionAndUnmap pins the ownership of mapped
// shard files: one GC cleanup per record block (and per sidecar index)
// owns each mapping.  Delta shards opened from disk are mapped, and
// compaction moves their records into a merged archive, so the merged
// records alias the deltas' mappings after the delta engines are gone.
// The store must keep answering like a fresh engine across collections,
// and once it is dropped every mapping it made must be unmapped.
func TestMappedDeltasSurviveCompactionAndUnmap(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	tus := ds.Trajectories
	opts := DefaultOptions(p.Ts)
	opts.NumShards = 2
	opts.Index = testIndexOpts

	collect := func() {
		for range 3 {
			runtime.GC()
		}
	}
	collect()
	baseline := mmapio.MappedBytes()
	func() {
		s, err := Build(ds.Graph, tus[:12], opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := saveStore(t, s)
		for n := 12; n < 24; n += 6 {
			if _, err := s.ApplyDelta(tus[n:n+6], uint64(n+6)); err != nil {
				t.Fatal(err)
			}
		}
		o, err := Open(dir, ds.Graph, OpenOptions{Eager: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := o.Stats(); st.DeltaShards != 2 {
			t.Fatalf("reopened store has %d delta shards, want 2", st.DeltaShards)
		}
		if mmapio.MappedBytes() == baseline {
			t.Skip("no OS mapping on this platform")
		}
		if _, err := o.ApplyDelta(tus[24:], uint64(len(tus))); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := o.Stats(); st.DeltaShards != 0 {
			t.Fatalf("compacted store has %d delta shards, want 0", st.DeltaShards)
		}
		for i := range 3 {
			collect()
			checkGeneration(t, ds, tus, o, int64(500+i))
		}
	}()
	for i := 0; mmapio.MappedBytes() > baseline; i++ {
		if i == 200 {
			t.Fatalf("dropped store still maps %d bytes past the baseline", mmapio.MappedBytes()-baseline)
		}
		runtime.GC()
		runtime.Gosched()
	}
}
