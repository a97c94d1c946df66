package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"utcq/internal/core"
	"utcq/internal/roadnet"
)

// The shard manifest is the store directory's root artifact: it records the
// shard catalogue (ids, kinds, tombstones, bounds), the global→shard
// assignment (the only state that cannot be rederived from the shard
// archives), the index granularity every shard was built with, the dataset
// time span used by load generators and /v1/stats, and — since the store
// became writable — a generation number and the WAL high-water mark that
// make ingestion crash-recoverable.  It is framed with the same
// little-endian field codec as the archive container
// (core.LEWriter/LEReader); docs/FORMAT.md specifies the layout
// normatively.
//
// Version 3 layout (little endian):
//
//	magic "UTCS" | version u16
//	assignment u8
//	generation u64 | walApplied u64
//	gridNX u32 | gridNY u32 | intervalDur i64
//	timeMin i64 | timeMax i64
//	graphHash u64                 (roadnet.Graph.Fingerprint of the build network)
//	nextShardID u32 | numEntries u32
//	entries: numEntries × (id u32 | flags u8 | count u32 | 4 × f64 bounds
//	                       | bytes u64 | sidecarCRC u32)
//	         flags bit0 = delta shard, bit1 = tombstone
//	numTrajs u32
//	shardOf: numTrajs × u32       (global trajectory id → live shard id)
//
// bytes is the shard archive's file length (openShard fails fast on a
// truncated shard file instead of decoding garbage) and sidecarCRC the
// CRC-32 (IEEE) of the shard's StIU sidecar file; a zero CRC means "no
// sidecar — rebuild the index from the archive".  Version 3 is the only
// version read or written; older manifests are refused.
const (
	manifestMagic      = "UTCS"
	manifestVersion    = 3
	entryFlagDelta     = 1 << 0
	entryFlagTombstone = 1 << 1

	// Sanity bounds applied before any count-sized allocation, so a
	// truncated or corrupted manifest fails with a parse error instead of
	// an attempted multi-gigabyte allocation.
	maxManifestShards = 1 << 16
	maxManifestTrajs  = 1 << 28
	maxManifestIDs    = 1 << 24
)

// ManifestName is the manifest's file name inside a store directory.
const ManifestName = "MANIFEST.utcs"

// shardKind distinguishes the two shard populations of a mutable store.
type shardKind uint8

const (
	// kindBase shards come from the initial build or from compaction.
	kindBase shardKind = iota
	// kindDelta shards hold one ingested batch each; the compactor folds
	// them into a base shard.
	kindDelta
)

// shardEntry is one catalogue row of the manifest.  A tombstoned entry
// records a shard that compaction replaced: its file may still exist (old
// readers can reference it) but no trajectory maps to it.
type shardEntry struct {
	id   uint32
	kind shardKind
	dead bool

	// count is the number of trajectories the shard holds (validation
	// against the assignment vector and the shard archive).
	count uint32

	// bounds is a conservative bounding rectangle of the shard's
	// trajectory geometry (union of its StIU region cells).  Range skips
	// shards whose bounds miss the query rectangle — without opening
	// them.  An empty shard has an inverted rectangle (MinX > MaxX).
	bounds roadnet.Rect

	// bytes is the shard archive's exact file length; openShard rejects a
	// file of any other size before decoding.  0 skips the check.
	bytes uint64

	// sidecarCRC is the CRC-32 (IEEE) of the shard's StIU sidecar file;
	// openShard decodes the sidecar only when the checksum matches and
	// silently rebuilds the index otherwise.  0 means no sidecar.
	sidecarCRC uint32
}

// manifest is the decoded form.
type manifest struct {
	assignment Assignment

	// generation counts manifest versions: every ingested delta shard and
	// every compaction swaps in a new manifest with generation+1.
	generation uint64

	// walApplied is the number of WAL records already folded into shards;
	// crash recovery re-ingests everything past it (internal/ingest).
	walApplied uint64

	gridNX   int
	gridNY   int
	interval int64
	timeMin  int64
	timeMax  int64

	// graphHash fingerprints the road network the store was built with;
	// Open rejects a mismatching graph.
	graphHash uint64

	// nextID is the next shard id to allocate.  Ids are never reused, so
	// a tombstoned shard's file name can never be mistaken for a live one.
	nextID  uint32
	entries []shardEntry

	// shardOf maps a global trajectory id to the id of the live shard
	// holding it.
	shardOf []uint32
}

// clone returns a deep copy safe to mutate while readers hold the original.
func (m *manifest) clone() *manifest {
	c := *m
	c.entries = append([]shardEntry(nil), m.entries...)
	c.shardOf = append([]uint32(nil), m.shardOf...)
	return &c
}

// liveShards counts the catalogue entries that are not tombstoned.
func (m *manifest) liveShards() int {
	n := 0
	for _, e := range m.entries {
		if !e.dead {
			n++
		}
	}
	return n
}

// write serializes the manifest (always version 3).
func (m *manifest) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(manifestMagic); err != nil {
		return err
	}
	lw := core.NewLEWriter(bw)
	for _, step := range []error{
		lw.U16(manifestVersion),
		lw.U8(byte(m.assignment)),
		lw.U64(m.generation),
		lw.U64(m.walApplied),
		lw.U32(uint32(m.gridNX)),
		lw.U32(uint32(m.gridNY)),
		lw.I64(m.interval),
		lw.I64(m.timeMin),
		lw.I64(m.timeMax),
		lw.U64(m.graphHash),
		lw.U32(m.nextID),
		lw.U32(uint32(len(m.entries))),
	} {
		if step != nil {
			return step
		}
	}
	for _, e := range m.entries {
		flags := byte(0)
		if e.kind == kindDelta {
			flags |= entryFlagDelta
		}
		if e.dead {
			flags |= entryFlagTombstone
		}
		if err := lw.U32(e.id); err != nil {
			return err
		}
		if err := lw.U8(flags); err != nil {
			return err
		}
		if err := lw.U32(e.count); err != nil {
			return err
		}
		for _, v := range [4]float64{e.bounds.MinX, e.bounds.MinY, e.bounds.MaxX, e.bounds.MaxY} {
			if err := lw.F64(v); err != nil {
				return err
			}
		}
		if err := lw.U64(e.bytes); err != nil {
			return err
		}
		if err := lw.U32(e.sidecarCRC); err != nil {
			return err
		}
	}
	if err := lw.U32(uint32(len(m.shardOf))); err != nil {
		return err
	}
	for _, id := range m.shardOf {
		if err := lw.U32(id); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readManifest decodes and validates a version 3 manifest.
func readManifest(r io.Reader) (*manifest, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != manifestMagic {
		return nil, errors.New("store: not a UTCQ store manifest")
	}
	lr := core.NewLEReader(br)
	version, err := lr.U16()
	if err != nil {
		return nil, err
	}
	if version != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", version)
	}
	m := &manifest{}
	am, err := lr.U8()
	if err != nil {
		return nil, err
	}
	m.assignment = Assignment(am)
	if m.generation, err = lr.U64(); err != nil {
		return nil, err
	}
	if m.walApplied, err = lr.U64(); err != nil {
		return nil, err
	}
	nx, err := lr.U32()
	if err != nil {
		return nil, err
	}
	ny, err := lr.U32()
	if err != nil {
		return nil, err
	}
	m.gridNX, m.gridNY = int(nx), int(ny)
	if m.interval, err = lr.I64(); err != nil {
		return nil, err
	}
	if m.timeMin, err = lr.I64(); err != nil {
		return nil, err
	}
	if m.timeMax, err = lr.I64(); err != nil {
		return nil, err
	}
	if m.graphHash, err = lr.U64(); err != nil {
		return nil, err
	}
	if m.nextID, err = lr.U32(); err != nil {
		return nil, err
	}
	if m.nextID > maxManifestIDs {
		return nil, fmt.Errorf("store: manifest declares next shard id %d (limit %d)", m.nextID, maxManifestIDs)
	}
	ne, err := lr.U32()
	if err != nil {
		return nil, err
	}
	if ne < 1 || ne > maxManifestShards {
		return nil, fmt.Errorf("store: manifest declares %d shard entries (limit %d)", ne, maxManifestShards)
	}
	m.entries = make([]shardEntry, ne)
	seen := make(map[uint32]bool, ne)
	for i := range m.entries {
		e := &m.entries[i]
		if e.id, err = lr.U32(); err != nil {
			return nil, err
		}
		if e.id >= m.nextID {
			return nil, fmt.Errorf("store: shard id %d not below nextShardID %d", e.id, m.nextID)
		}
		if seen[e.id] {
			return nil, fmt.Errorf("store: duplicate shard id %d", e.id)
		}
		seen[e.id] = true
		flags, err := lr.U8()
		if err != nil {
			return nil, err
		}
		if flags&entryFlagDelta != 0 {
			e.kind = kindDelta
		}
		e.dead = flags&entryFlagTombstone != 0
		if e.count, err = lr.U32(); err != nil {
			return nil, err
		}
		var vals [4]float64
		for i := range vals {
			if vals[i], err = lr.F64(); err != nil {
				return nil, err
			}
		}
		e.bounds = roadnet.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
		if e.bytes, err = lr.U64(); err != nil {
			return nil, err
		}
		if e.sidecarCRC, err = lr.U32(); err != nil {
			return nil, err
		}
	}
	if m.liveShards() == 0 {
		return nil, errors.New("store: manifest has no live shards")
	}
	nt, err := lr.U32()
	if err != nil {
		return nil, err
	}
	if nt > maxManifestTrajs {
		return nil, fmt.Errorf("store: manifest declares %d trajectories (limit %d)", nt, maxManifestTrajs)
	}
	m.shardOf = make([]uint32, nt)
	counts := make(map[uint32]uint32, len(m.entries))
	live := make(map[uint32]bool, len(m.entries))
	for _, e := range m.entries {
		if !e.dead {
			live[e.id] = true
		}
	}
	for j := range m.shardOf {
		id, err := lr.U32()
		if err != nil {
			return nil, err
		}
		if !live[id] {
			return nil, fmt.Errorf("store: trajectory %d assigned to unknown or tombstoned shard %d", j, id)
		}
		m.shardOf[j] = id
		counts[id]++
	}
	for _, e := range m.entries {
		if e.dead {
			continue
		}
		if got := counts[e.id]; got != e.count {
			return nil, fmt.Errorf("store: shard %d count %d does not match assignment (%d)", e.id, e.count, got)
		}
	}
	return m, nil
}
