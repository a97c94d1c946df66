// Package faultfs abstracts the filesystem operations the persistence
// layer performs — open, read, write, sync, rename, truncate, remove,
// directory sync — behind an interface with three implementations:
//
//   - OS: the real filesystem (the production default; callers that pass a
//     nil FS get it).
//   - MemFS: an in-memory filesystem that models crash semantics
//     explicitly — every file tracks its durable (fsynced) prefix
//     separately from its volatile content, and directory entries
//     (creates, renames, removes) become durable only when the directory
//     is synced.  PowerCut discards everything not explicitly made
//     durable, yielding exactly the state a machine would reboot into.
//   - Injector: a wrapper over any FS with a deterministic failpoint
//     controller — fail the Nth mutating operation with ENOSPC/EIO, or
//     "crash" after the Nth operation so every later call fails, which
//     combined with MemFS.PowerCut simulates a process death at an
//     arbitrary I/O boundary.
//
// WriteFile and ReplaceFile are the persistence layer's one write path:
// every durable file is created, written, fsynced and closed by WriteFile,
// and replaced atomically (temp file, rename, directory sync) by
// ReplaceFile, on any FS.
//
// The crash-matrix harness (internal/faultfs/crashmatrix) enumerates every
// mutating operation of a workload and replays it with a crash injected
// after each one, asserting the store's acked-durability contract at every
// point.  The same substrate backs the multi-node chaos tests the ROADMAP
// plans: killing a node mid-ingest is CrashAfter at a random op.
package faultfs

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the handle surface the persistence layer needs.  *os.File
// satisfies it directly.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is a filesystem.  Implementations must be safe for concurrent use by
// multiple goroutines (the store's lazy shard opens race its mutation
// path's writes).
type FS interface {
	// Create truncates-or-creates name for writing (os.Create semantics).
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics; the flag
	// subset used by this codebase is O_RDWR|O_CREATE and O_RDWR).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove unlinks name.
	Remove(name string) error
	// MkdirAll creates a directory path (and parents).
	MkdirAll(path string, perm os.FileMode) error
	// Stat describes name.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs the directory so completed renames/creates/removes
	// in it survive power loss.  Implementations return nil on platforms
	// whose directories cannot be synced (the operation is then a no-op,
	// not a failure); a real I/O error from a sync that should have
	// worked IS reported — callers must propagate it, because a lost
	// directory sync can orphan a renamed file after power loss.
	SyncDir(dir string) error
}

// OS is the real filesystem.  Callers treat a nil FS as OS, so existing
// call sites need no explicit wiring.
var OS FS = osFS{}

// Resolve returns fs, or OS when fs is nil — the idiom every consumer
// uses to default.
func Resolve(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

// IsOS reports whether fs is the real filesystem (after Resolve); callers
// use it to pick OS-only fast paths such as mmap.
func IsOS(fs FS) bool { return fs == nil || fs == OS }

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// SyncDir opens and fsyncs the directory.  Errors meaning "this platform
// or filesystem cannot sync directories" (EINVAL, ENOTSUP, EBADF on some
// BSDs) degrade to nil — an unsupported sync is not a lost sync; a real
// I/O failure is returned.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) || errors.Is(serr, syscall.EBADF) {
			return nil
		}
		return serr
	}
	return cerr
}
