// Golden byte-identity tests: the hot-path rewrites (word-level bitio,
// indexed factorization, direct serialization) must not change a single
// output bit.  Fixtures under testdata/ were generated with the pre-rewrite
// implementation; regenerate with `go test -run TestGolden -update` only
// when the on-disk/bit-stream format changes deliberately.
package utcq_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"utcq/internal/core"
	"utcq/internal/exp"
	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// archiveBytes compresses and serializes one dataset deterministically.
func archiveBytes(t *testing.T, a *core.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitstreamDigest hashes the concatenated record bitstreams, the bytes
// the paper's compression ratios count; it is independent of the
// container layout around them.
func bitstreamDigest(a *core.Archive) string {
	h := sha256.New()
	for _, tr := range a.Trajs {
		h.Write(tr.Bits[:(tr.BitLen+7)/8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// indexDigest walks the StIU index through its accessors in a
// deterministic order and hashes every stored field, so any change to the
// built index is detected.
func indexDigest(t *testing.T, ix *stiu.Index) string {
	t.Helper()
	h := sha256.New()
	for j := range ix.Temporal {
		entries, err := ix.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "T%d:", j)
		for _, e := range entries {
			fmt.Fprintf(h, "(%d,%d,%d)", e.Start, e.No, e.Pos)
		}
	}
	ivs := make([]int, 0, len(ix.Intervals))
	for iv := range ix.Intervals {
		ivs = append(ivs, iv)
	}
	sort.Ints(ivs)
	cells := roadnet.RegionID(ix.Opts.GridNX * ix.Opts.GridNY)
	for _, iv := range ivs {
		trajs, err := ix.Candidates(iv)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "I%d:%v N%d", iv, trajs, ix.Intervals[iv].NonRefs)
		for re := roadnet.RegionID(0); re < cells; re++ {
			b, err := ix.Buckets(iv, re)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				continue
			}
			fmt.Fprintf(h, "R%d:", re)
			for _, rt := range b.Refs {
				fmt.Fprintf(h, "(%d,%d,%t,%g,%g)", rt.Traj, rt.Orig, rt.Enters, rt.PTotal, rt.PMax)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodeDigest hashes everything DecodeAll returns: T, and per instance
// SV, E, T' and the exact bits of every D and of P, so any change to full
// decompression is detected.
func decodeDigest(t *testing.T, a *core.Archive) string {
	t.Helper()
	us, err := a.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for j, u := range us {
		fmt.Fprintf(h, "U%d:%v", j, u.T)
		for i := range u.Instances {
			ins := &u.Instances[i]
			fmt.Fprintf(h, "I%d:%d %v %v %x D", i, ins.SV, ins.E, ins.TF, math.Float64bits(ins.P))
			for _, d := range ins.D {
				fmt.Fprintf(h, " %x", math.Float64bits(d))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPaperExample pins the exact serialized bytes of the paper's
// worked-example trajectory.
func TestGoldenPaperExample(t *testing.T) {
	fx := paperfix.MustNew()
	c, err := core.NewCompressor(fx.Graph, core.DefaultOptions(paperfix.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	got := archiveBytes(t, a)
	path := filepath.Join("testdata", "golden_paperfix.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("archive bytes changed: got %d bytes (sha %s), want %d bytes (sha %s)",
			len(got), shortSHA(got), len(want), shortSHA(want))
	}
}

// TestGoldenDatasets pins archive, bitstream, StIU and full-decode digests, and the
// index's Fig 9 size accounting, on the three synthetic paper profiles.
func TestGoldenDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("golden datasets are slow")
	}
	bundles, err := exp.Datasets(exp.Config{Scale: 0.1, Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, bu := range bundles {
		c, err := core.NewCompressor(bu.DS.Graph, bu.Opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Compress(bu.DS.Trajectories)
		if err != nil {
			t.Fatal(err)
		}
		ab := archiveBytes(t, a)
		ix, err := stiu.Build(a, stiu.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines,
			fmt.Sprintf("%s archive %s", bu.Profile.Name, shortSHA(ab)),
			fmt.Sprintf("%s bitstream %s", bu.Profile.Name, bitstreamDigest(a)),
			fmt.Sprintf("%s stiu %s", bu.Profile.Name, indexDigest(t, ix)),
			fmt.Sprintf("%s sizebits temporal=%d spatial=%d", bu.Profile.Name,
				ix.TemporalSizeBits(), ix.SpatialSizeBits(a.VertexBits)),
			fmt.Sprintf("%s decode %s", bu.Profile.Name, decodeDigest(t, a)))
	}
	got := ""
	for _, l := range lines {
		got += l + "\n"
	}
	path := filepath.Join("testdata", "golden_datasets.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("digests changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestGoldenStore pins the bytes of a complete mutable-store directory —
// manifest v3 with live base shards, a tombstoned delta shard and a
// compacted base shard, plus every shard archive and StIU sidecar —
// against checked-in digests.  The CI format-compat job runs this (and the other goldens) on
// a Go-version matrix, making docs/FORMAT.md's normative claim
// machine-enforced: any digest drift fails the build.
func TestGoldenStore(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = 2
	opts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	s, err := store.Build(ds.Graph, ds.Trajectories[:8], opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Exercise the mutable-manifest features the golden must pin: an
	// ingested delta shard, a compaction, and the resulting tombstone.
	if _, err := s.ApplyDelta(ds.Trajectories[8:], 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %s", e.Name(), shortSHA(b)))
	}
	sort.Strings(lines)
	got := ""
	for _, l := range lines {
		got += l + "\n"
	}

	path := filepath.Join("testdata", "golden_store.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("store directory digests changed:\ngot:\n%swant:\n%s", got, want)
	}

	// The pinned directory must also still open and serve: decode-compat,
	// not just byte-compat.
	o, err := store.Open(dir, ds.Graph, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Generation() != 3 || o.NumTrajectories() != 12 {
		t.Fatalf("golden store reopened at generation %d with %d trajectories", o.Generation(), o.NumTrajectories())
	}
	T := ds.Trajectories[11].T
	if _, err := o.Where(11, (T[0]+T[len(T)-1])/2, 0.1); err != nil {
		t.Fatal(err)
	}
}

func shortSHA(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
