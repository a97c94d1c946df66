package faultfs

import (
	"errors"
	"os"
	"testing"
)

// replaceOps counts the mutating operations of one successful ReplaceFile.
func replaceOps(t *testing.T) int64 {
	t.Helper()
	in := NewInjector(NewMemFS())
	if err := ReplaceFile(in, "f", Bytes([]byte("new"))); err != nil {
		t.Fatal(err)
	}
	return in.OpCount()
}

// TestReplaceFilePowerCut cuts power after every operation of a
// ReplaceFile over a durable file: the reboot finds the old content until
// the directory sync completes and the new content after it, never a mix
// or a missing file, even with a torn-write budget.
func TestReplaceFilePowerCut(t *testing.T) {
	n := replaceOps(t)
	if n != 5 { // create, write, sync, rename, syncdir
		t.Fatalf("ReplaceFile makes %d mutating ops, want 5", n)
	}
	for k := int64(-1); k < n; k++ {
		m := NewMemFS()
		m.SetTornBytes(2)
		if err := m.MkdirAll("d", 0o755); err != nil {
			t.Fatal(err)
		}
		writeAll(t, m, "d/f", "old content", true)
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(m)
		in.CrashAfter(k)
		err := ReplaceFile(in, "d/f", Bytes([]byte("new content")))
		if (err == nil) != (k == n-1) {
			t.Fatalf("crash after op %d: ReplaceFile returned %v", k, err)
		}
		m.PowerCut()
		want := "old content"
		if k == n-1 {
			want = "new content"
		}
		if data, err := m.ReadFile("d/f"); err != nil || string(data) != want {
			t.Fatalf("crash after op %d: reboot reads %q, %v; want %q", k, data, err, want)
		}
	}
}

// TestWriteHelpersFaultLeaveNoPartialFile fails every operation of
// WriteFile and ReplaceFile in turn: each failure is reported, and
// neither a .tmp file nor a partially written file is left behind.
func TestWriteHelpersFaultLeaveNoPartialFile(t *testing.T) {
	n := replaceOps(t)
	for i := int64(0); i < n; i++ {
		m := NewMemFS()
		writeAll(t, m, "f", "old", true)
		in := NewInjector(m)
		in.FailAt(i, EIO)
		if err := ReplaceFile(in, "f", Bytes([]byte("new"))); !errors.Is(err, ErrInjected) {
			t.Fatalf("ReplaceFile fault at %s op %d: got %v", in.FailedOp(), i, err)
		}
		if _, err := m.Stat("f.tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("ReplaceFile fault at %s op %d left f.tmp (%v)", in.FailedOp(), i, err)
		}
		// Only a failed directory sync comes after the rename.
		want := "old"
		if in.FailedOp() == OpSyncDir {
			want = "new"
		}
		if data, err := m.ReadFile("f"); err != nil || string(data) != want {
			t.Fatalf("ReplaceFile fault at %s op %d: f is %q, %v; want %q", in.FailedOp(), i, data, err, want)
		}
	}
	for i := int64(0); i < 3; i++ { // create, write, sync
		m := NewMemFS()
		in := NewInjector(m)
		in.FailAt(i, ENOSPC)
		if err := WriteFile(in, "f", Bytes([]byte("new"))); !errors.Is(err, ErrInjected) {
			t.Fatalf("WriteFile fault at %s op %d: got %v", in.FailedOp(), i, err)
		}
		if _, err := m.Stat("f"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("WriteFile fault at %s op %d left a partial file (%v)", in.FailedOp(), i, err)
		}
	}
}
