package mmapio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"utcq/internal/faultfs"
)

func writeTemp(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMapped(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	content := bytes.Repeat([]byte{0xAB, 0xCD}, 4096)
	m, err := Open(writeTemp(t, content))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped() {
		t.Fatal("expected an OS mapping")
	}
	if !bytes.Equal(m.Data(), content) {
		t.Fatal("mapped content differs from file content")
	}
	if got := MappedBytes(); got < int64(len(content)) {
		t.Fatalf("MappedBytes = %d, want >= %d", got, len(content))
	}
	before := MappedBytes()
	m.Release()
	if got := MappedBytes(); got != before-int64(len(content)) {
		t.Fatalf("MappedBytes after release = %d, want %d", got, before-int64(len(content)))
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() || len(m.Data()) != 0 {
		t.Fatalf("empty file: mapped=%v len=%d", m.Mapped(), len(m.Data()))
	}
	m.Release()
}

// TestMapFailureFallsBackToHeap forces the platform map call to fail and
// requires Open to degrade to the heap path silently: a map failure
// (exotic filesystem, resource limit) must not fail the open.  On a
// platform without mmap the hook goes unused and the test pins the
// fallback every Open takes there.
func TestMapFailureFallsBackToHeap(t *testing.T) {
	orig := mapFileImpl
	mapFileImpl = func(f *os.File, size int64) ([]byte, error) {
		return nil, errors.New("injected map failure")
	}
	defer func() { mapFileImpl = orig }()

	content := bytes.Repeat([]byte{0x5A}, 4096)
	before := MappedBytes()
	m, err := Open(writeTemp(t, content))
	if err != nil {
		t.Fatalf("map failure must fall back, not fail: %v", err)
	}
	defer m.Release()
	if m.Mapped() {
		t.Fatal("failed map call still reported a mapping")
	}
	if !bytes.Equal(m.Data(), content) {
		t.Fatal("fallback content differs from file content")
	}
	if got := MappedBytes(); got != before {
		t.Fatalf("failed mapping leaked into MappedBytes: %d -> %d", before, got)
	}
}

// TestOpenHeapFallback pins the lifecycle of a heap-backed Map, whichever
// route led to it (no mmap on the platform, or a failed map call, forced
// here): Release must not unmap anything or touch MappedBytes, and it
// drops the Map's hold on the data.
func TestOpenHeapFallback(t *testing.T) {
	orig := mapFileImpl
	mapFileImpl = func(f *os.File, size int64) ([]byte, error) {
		return nil, errors.New("injected map failure")
	}
	defer func() { mapFileImpl = orig }()

	content := []byte("heap path")
	m, err := Open(writeTemp(t, content))
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() {
		t.Fatal("heap fallback still produced a mapping")
	}
	if !bytes.Equal(m.Data(), content) {
		t.Fatal("heap content differs from file content")
	}
	before := MappedBytes()
	m.Release()
	if got := MappedBytes(); got != before {
		t.Fatalf("releasing a heap Map changed MappedBytes: %d -> %d", before, got)
	}
	if m.Mapped() || m.Data() != nil {
		t.Fatalf("after Release: mapped=%v len=%d", m.Mapped(), len(m.Data()))
	}
}

// TestOpenInNonOSFS pins the faultfs path of OpenIn: any non-OS
// filesystem reads onto the heap through the abstraction (so injected
// read faults surface) instead of attempting an OS mapping of a file
// that does not exist on disk.
func TestOpenInNonOSFS(t *testing.T) {
	mem := faultfs.NewMemFS()
	content := []byte("in-memory archive")
	f, err := mem.Create("a.utcq")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err := OpenIn(mem, "a.utcq")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.Mapped() {
		t.Fatal("MemFS content cannot be OS-mapped")
	}
	if !bytes.Equal(m.Data(), content) {
		t.Fatal("OpenIn content differs")
	}
}

func TestUnlinkedFileStaysReadable(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	content := bytes.Repeat([]byte{3}, 4096)
	path := writeTemp(t, content)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// Tombstone GC deletes shard files that older generations may still
	// have mapped; the pages must stay valid until the mapping drops.
	if !bytes.Equal(m.Data(), content) {
		t.Fatal("mapping invalid after unlink")
	}
}
