package faultfs

import (
	"fmt"
	"io"
	"path/filepath"
)

// WriteFile creates name, hands it to write, fsyncs and closes it: the
// content is durable when WriteFile returns nil, the directory entry not
// yet (follow with SyncDir, or use ReplaceFile).  On any failure the
// partial file is removed, so name never holds a half-written file the
// caller did not see fail.
func WriteFile(fs FS, name string, write func(io.Writer) error) error {
	fs = Resolve(fs)
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(name)
	}
	return err
}

// ReplaceFile atomically replaces name: WriteFile to name+".tmp", rename
// it over name, then fsync the directory.  A reader sees the old file or
// the complete new one, never a truncated or partial one, and a file that
// is already open or mapped under name keeps its content.  The directory
// sync's error is returned: until the entry is durable the rename is not,
// and a power cut after a swallowed failure could reboot into the old
// file (or none).
func ReplaceFile(fs FS, name string, write func(io.Writer) error) error {
	fs = Resolve(fs)
	tmp := name + ".tmp"
	if err := WriteFile(fs, tmp, write); err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp)
		return err
	}
	dir := filepath.Dir(name)
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("sync %s after renaming %s: %w", dir, filepath.Base(name), err)
	}
	return nil
}

// Bytes is the write function that writes data, for the WriteFile and
// ReplaceFile callers whose content is already in memory.
func Bytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}
