package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"

	"utcq/internal/core"
	"utcq/internal/faultfs"
	"utcq/internal/mmapio"
	"utcq/internal/par"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// shardFile returns the archive file name of the shard with the given id.
// Ids are never reused, so a name can never refer to two different shard
// populations across generations.
func shardFile(id uint32) string { return fmt.Sprintf("shard-%04d.utcq", id) }

// sidecarFile returns the StIU sidecar file name of a shard (FORMAT.md §5).
func sidecarFile(id uint32) string { return fmt.Sprintf("shard-%04d.stiu", id) }

// countingWriter tracks how many bytes passed through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeShardFile persists one shard archive atomically and returns its
// exact length, which the manifest records for open-time validation.
func writeShardFile(fs faultfs.FS, dir string, id uint32, arch *core.Archive) (int64, error) {
	var size int64
	err := faultfs.ReplaceFile(fs, filepath.Join(dir, shardFile(id)), func(w io.Writer) error {
		cw := &countingWriter{w: w}
		if err := arch.Save(cw); err != nil {
			return err
		}
		size = cw.n
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: save shard %d: %w", id, err)
	}
	return size, nil
}

// writeShardArtifacts persists a shard's archive and its StIU sidecar and
// returns the archive length plus the sidecar checksum for the manifest
// entry.  The sidecar is an optimization, never a source of truth: if the
// index cannot be encoded the shard is still durable and openers rebuild.
func writeShardArtifacts(fs faultfs.FS, dir string, id uint32, arch *core.Archive, ix *stiu.Index) (uint64, uint32, error) {
	size, err := writeShardFile(fs, dir, id, arch)
	if err != nil {
		return 0, 0, err
	}
	enc, err := ix.EncodeSidecar(size)
	if err != nil {
		return uint64(size), 0, fmt.Errorf("store: encode sidecar %d: %w", id, err)
	}
	if err := faultfs.ReplaceFile(fs, filepath.Join(dir, sidecarFile(id)), faultfs.Bytes(enc)); err != nil {
		return 0, 0, fmt.Errorf("store: save sidecar %d: %w", id, err)
	}
	return uint64(size), crc32.ChecksumIEEE(enc), nil
}

// writeManifestFile persists the manifest atomically.  Because readers
// resolve every shard through the manifest, the rename is the commit point
// of a mutation: before it they see the previous generation, after it the
// new one, never a mixture.
func writeManifestFile(fs faultfs.FS, dir string, man *manifest) error {
	if err := faultfs.ReplaceFile(fs, filepath.Join(dir, ManifestName), man.write); err != nil {
		return fmt.Errorf("store: save manifest: %w", err)
	}
	return nil
}

// Save writes the store to dir — every live shard plus the manifest, each
// through an atomic write — and binds the store to the directory: later
// ApplyDelta and Compact calls persist their mutations there.  Every live
// shard must be resident (a freshly built store always is; a lazily
// opened store round-trips only after every shard has been touched);
// residency is verified up front so a failed Save does not leave a
// partial store directory behind.
func (s *Store) Save(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.v.Load()
	type item struct {
		slot int
		eng  *query.Engine
	}
	var items []item
	for slot, sh := range v.shards {
		if sh == nil {
			continue
		}
		eng := sh.eng.Load()
		if eng == nil {
			return fmt.Errorf("store: cannot save: shard %d not resident", sh.id)
		}
		items = append(items, item{slot, eng})
	}
	if err := s.fsys().MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The written manifest records each shard's file length and sidecar
	// checksum, so the catalogue entries are filled on a copy and swapped
	// in with the directory binding.
	man := v.man.clone()
	for _, it := range items {
		id := man.entries[it.slot].id
		nbytes, crc, err := writeShardArtifacts(s.fsys(), dir, id, it.eng.Arch, it.eng.Ix)
		if err != nil {
			return err
		}
		man.entries[it.slot].bytes = nbytes
		man.entries[it.slot].sidecarCRC = crc
	}
	if err := writeManifestFile(s.fsys(), dir, man); err != nil {
		return err
	}
	s.swap(newView(man, v.shards))
	s.dir.Store(&dir)
	return nil
}

// OpenOptions configure a store opened from disk.
type OpenOptions struct {
	// Core are the compression parameters for delta shards built by
	// ApplyDelta.  The zero value derives them from the first live shard's
	// archive on first use (the container persists them); only an empty
	// store needs them set explicitly before ingestion.
	Core core.Options
	// Parallelism bounds the per-shard index rebuild and the Range
	// scatter pool (<1: one worker per CPU).
	Parallelism int
	// Eager opens every shard immediately instead of on first use.
	Eager bool
	// FS is the filesystem the store reads and persists through (nil:
	// the real filesystem).  Fault-injection tests substitute
	// faultfs.MemFS/Injector here.
	FS faultfs.FS
}

// Open reads a store directory written by Save (or grown by ApplyDelta /
// Compact) and attaches the road network (which, as with core.Load, is not
// serialized).  Only the manifest is read up front: each shard's archive
// is memory-mapped — and its StIU index decoded from the checksummed
// sidecar, or rebuilt when the sidecar is missing or stale — on the first
// query that touches it, unless opts.Eager is set.
func Open(dir string, g *roadnet.Graph, opts OpenOptions) (*Store, error) {
	fsys := faultfs.Resolve(opts.FS)
	f, err := fsys.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	man, err := readManifest(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if got := g.Fingerprint(); got != man.graphHash {
		return nil, fmt.Errorf("store: road network fingerprint %016x does not match manifest %016x: the store was built against a different network", got, man.graphHash)
	}
	// Mirror Build's nested-pool guard: when the Range scatter pool fans
	// out across shards, lazily triggered index rebuilds run serially
	// inside it instead of spawning workers² goroutines.
	ixPar := opts.Parallelism
	if man.liveShards() > 1 && par.Workers(opts.Parallelism) > 1 {
		ixPar = 1
	}
	s := &Store{
		graph: g,
		fs:    opts.FS,
		opts: Options{
			NumShards:   man.liveShards(),
			Assignment:  man.assignment,
			Core:        opts.Core,
			Index:       stiu.Options{GridNX: man.gridNX, GridNY: man.gridNY, IntervalDur: man.interval, Parallelism: ixPar},
			Parallelism: opts.Parallelism,
			FS:          opts.FS,
		},
	}
	s.dir.Store(&dir)
	v := newView(man, buildShards(man))
	s.swap(v)
	if opts.Eager {
		// Fan the cold start out across shards (each rebuild stays serial
		// inside — the same shape as Build).
		err := par.Do(par.Workers(opts.Parallelism), len(v.shards), func(slot int) error {
			if v.shards[slot] == nil {
				return nil
			}
			_, err := s.engine(context.Background(), v, slot)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// releaseMap is the cleanup target of a mapping's sole owner (a named
// function so every cleanup reuses one closure).
func releaseMap(m *mmapio.Map) { m.Release() }

// openShard maps a shard's archive from the store directory and attaches
// its StIU index — decoded from the sidecar when the manifest checksum
// vouches for it, rebuilt from the archive otherwise.
//
// The archive decode is zero-copy: record bitstreams alias the mapping,
// so pages fault in when queries touch them, not at open.  Because
// Compact moves TrajRecord pointers into merged archives that outlive
// this shard's engine, the mapping's lifetime cannot follow the engine.
// LoadBytes allocates the records in one block, and any live record keeps
// that whole block reachable, so the block owns the mapping: one GC
// cleanup on it unmaps the file exactly when the last record becomes
// unreachable (the sidecar-backed index owns its own mapping likewise).
func (s *Store) openShard(sh *shard, e *shardEntry) (*query.Engine, error) {
	m, err := mmapio.OpenIn(s.fsys(), filepath.Join(s.dirPath(), shardFile(sh.id)))
	if err != nil {
		return nil, err
	}
	data := m.Data()
	if e.bytes != 0 && uint64(len(data)) != e.bytes {
		m.Release()
		return nil, fmt.Errorf("shard file is %d bytes, manifest records %d: truncated or foreign file", len(data), e.bytes)
	}
	arch, err := core.LoadBytes(data, s.graph)
	if err != nil {
		m.Release()
		return nil, err
	}
	if got, want := len(arch.Trajs), len(sh.globals); got != want {
		m.Release()
		return nil, fmt.Errorf("%d trajectories on disk, manifest says %d", got, want)
	}
	if len(arch.Trajs) == 0 {
		m.Release() // nothing aliases the mapping
	} else if m.Mapped() {
		runtime.AddCleanup(arch.Trajs[0], releaseMap, m)
	}
	ix := s.loadSidecar(sh.id, e, arch, int64(len(data)))
	if ix == nil {
		s.sidecarRebuilds.Add(1)
		if ix, err = stiu.Build(arch, s.indexOptions()); err != nil {
			return nil, err
		}
	} else {
		s.sidecarLoads.Add(1)
	}
	return query.NewEngine(arch, ix), nil
}

// loadSidecar returns the shard's persisted StIU index, or nil when the
// shard has no usable sidecar — absent, checksum mismatch, or undecodable.
// A nil return is never an error: the sidecar is a cache of the index, so
// the caller silently rebuilds from the archive.
func (s *Store) loadSidecar(id uint32, e *shardEntry, arch *core.Archive, archiveSize int64) *stiu.Index {
	if e.sidecarCRC == 0 {
		return nil
	}
	m, err := mmapio.OpenIn(s.fsys(), filepath.Join(s.dirPath(), sidecarFile(id)))
	if err != nil {
		return nil
	}
	data := m.Data()
	if crc32.ChecksumIEEE(data) != e.sidecarCRC {
		m.Release()
		return nil
	}
	ix, err := stiu.DecodeSidecar(data, s.graph, len(arch.Trajs), archiveSize, s.indexOptions())
	if err != nil {
		m.Release()
		return nil
	}
	if m.Mapped() {
		runtime.AddCleanup(ix, releaseMap, m)
	}
	return ix
}
