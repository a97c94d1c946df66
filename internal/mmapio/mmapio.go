// Package mmapio maps read-only files into memory so archives can be
// decoded in place instead of copied onto the heap.  On platforms with
// mmap support a Map is backed by an OS mapping (the page cache *is* the
// buffer: untouched records cost no resident memory, and the kernel
// reclaims clean pages under pressure); elsewhere — and for empty files
// or a failed map call — Open falls back to a plain heap read with
// identical semantics, so callers never branch on platform.
//
// A Map has exactly one owner, and Release unmaps it.  Decoded objects
// alias subslices of the mapping and may outlive the code that opened it
// (store compaction moves records from delta archives into a merged
// archive), so the owner is usually not a scope but one heap object that
// every alias holder keeps reachable: the opener attaches a
// runtime.AddCleanup to it that Releases the Map when it is collected,
// and no live []byte can then point into unmapped memory.  Unlinking a
// mapped file (the store's tombstone GC does) is safe: POSIX keeps the
// pages valid until the mapping goes away.
package mmapio

import (
	"fmt"
	"os"
	"sync/atomic"

	"utcq/internal/faultfs"
)

// mappedBytes is the process-wide gauge of live OS-mapped bytes
// (heap-fallback buffers are not counted — they show up in Go heap
// metrics instead).
var mappedBytes atomic.Int64

// MappedBytes returns the total bytes currently mapped by this package
// across all open Maps.
func MappedBytes() int64 { return mappedBytes.Load() }

// Map is a read-only view of one file, either OS-mapped or heap-backed.
type Map struct {
	data   []byte
	mapped bool
}

// OpenIn opens path through the given filesystem abstraction.  The real
// filesystem (faultfs.OS or nil) takes the Open path below — OS mapping
// with heap fallback.  Any other FS (the fault-injection substrate of
// internal/faultfs) has no OS file to map, so the content is read through
// it onto the heap: fault injection exercises every read failure the map
// path can see, while the mapping syscalls themselves stay covered by the
// mapFileImpl hook (see TestMapFailureFallsBackToHeap).
func OpenIn(fs faultfs.FS, path string) (*Map, error) {
	if faultfs.IsOS(fs) {
		return Open(path)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Map{data: data}, nil
}

// mapFileImpl indirects the platform map call so tests can force a map
// failure and pin the heap-fallback path (production code never touches
// it).
var mapFileImpl = mapFile

// Open maps path read-only.  The heap fallback is selected when the
// platform lacks mmap, when the file is empty (zero-length mappings are
// invalid), or when the map call fails.  The caller owns the returned
// Map.
func Open(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(maxInt) {
		return nil, fmt.Errorf("mmapio: %s is %d bytes, too large to map", path, size)
	}
	m := &Map{}
	if size > 0 && mmapSupported {
		data, err := mapFileImpl(f, size)
		if err == nil {
			m.data, m.mapped = data, true
			mappedBytes.Add(size)
			return m, nil
		}
		// Fall through: a map failure (exotic filesystem, resource limit)
		// degrades to the heap path instead of failing the open.
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && size > 0 {
		return nil, err
	}
	m.data = data
	return m, nil
}

const maxInt = int(^uint(0) >> 1)

// Data returns the file contents.  The slice stays valid until Release.
func (m *Map) Data() []byte { return m.data }

// Mapped reports whether the Map is backed by an OS mapping (false for
// the heap fallback, whose lifetime the garbage collector handles
// directly).
func (m *Map) Mapped() bool { return m.mapped }

// Release unmaps the file.  Only the Map's owner calls it, once (a GC
// cleanup may be that owner); no slice of Data may be used afterwards.
func (m *Map) Release() {
	if m.mapped {
		mappedBytes.Add(-int64(len(m.data)))
		_ = unmapFile(m.data)
		m.mapped = false
	}
	m.data = nil
}
