package query

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// fuzzOpts is the index granularity of the sidecar fuzz fixtures.
var fuzzOpts = stiu.Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}

// fuzzArchive compresses n trajectories of a small network of profile p
// from seed.
func fuzzArchive(tb testing.TB, p gen.Profile, n int, seed int64) (*gen.Dataset, *core.Archive) {
	tb.Helper()
	p.Network.Cols, p.Network.Rows = 12, 12
	ds, err := gen.Build(p, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, a
}

// fuzzSidecar builds a's index and returns its sidecar bound to size.
func fuzzSidecar(tb testing.TB, a *core.Archive, size int64) []byte {
	tb.Helper()
	ix, err := stiu.Build(a, fuzzOpts)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := ix.EncodeSidecar(size)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// fuzzQueries are one Where time and one When location per trajectory:
// the middle timestamp, and the middle of the middle edge of its first
// instance's path.
type fuzzQueries struct {
	times []int64
	locs  []roadnet.Position
}

func newFuzzQueries(tb testing.TB, ds *gen.Dataset) *fuzzQueries {
	tb.Helper()
	q := &fuzzQueries{}
	oracle := NewOracle(ds.Graph, ds.Trajectories)
	for j, u := range ds.Trajectories {
		pi, err := oracle.path(j, 0)
		if err != nil {
			tb.Fatal(err)
		}
		q.times = append(q.times, u.T[len(u.T)/2])
		q.locs = append(q.locs, ds.Graph.PositionAtRD(pi.Edges[len(pi.Edges)/2], 0.5))
	}
	return q
}

// run answers q's Where and When queries on every trajectory and
// AppendRange over the index bounds in every interval; it returns the
// errors.  Hostile index bytes must surface as errors, never as panics.
func (q *fuzzQueries) run(ix *stiu.Index, a *core.Archive) (errs []error) {
	e := NewEngine(a, ix)
	count := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	for j := range q.times {
		for _, alpha := range []float64{0, 0.5} {
			_, err := e.Where(j, q.times[j], alpha)
			count(err)
			_, err = e.When(j, q.locs[j], alpha)
			count(err)
		}
	}
	bounds := ix.Bounds()
	var dst []int
	for id := range ix.Intervals {
		t := int64(id)*fuzzOpts.IntervalDur + fuzzOpts.IntervalDur/2
		for _, alpha := range []float64{0, 0.5} {
			var err error
			dst, err = e.AppendRange(dst[:0], bounds, t, alpha)
			count(err)
		}
	}
	return errs
}

// TestEngineOnForeignSidecar decodes the sidecar of an HZ archive, whose
// trajectories have more instances, against a CD archive with as many
// trajectories: every section is well-formed, but its instance numbers
// describe other records.  A tuple naming an instance the trajectory
// lacks must fail its query with an error, never index past the
// engine's tables.
func TestEngineOnForeignSidecar(t *testing.T) {
	const n, size = 12, 7
	ds, a := fuzzArchive(t, gen.CD(), n, 7)
	_, other := fuzzArchive(t, gen.HZ(), n, 8)
	ix, err := stiu.DecodeSidecar(fuzzSidecar(t, other, size), a.Graph, n, size, fuzzOpts)
	if err != nil {
		t.Fatal(err)
	}
	errs := newFuzzQueries(t, ds).run(ix, a)
	if !slices.ContainsFunc(errs, func(err error) bool { return strings.Contains(err.Error(), "index tuple names instance") }) {
		t.Fatalf("no query failed on a missing instance; errors: %v", errs)
	}
}

// FuzzEngineOnSidecar feeds mutated sidecar bytes through DecodeSidecar,
// NewEngine and Where, When and AppendRange: whatever decodes must
// answer every query with an error or a result, never a panic.  Seeds
// are the archive's own sidecar, a foreign one (well-formed, other
// records), cuts and single byte flips.
func FuzzEngineOnSidecar(f *testing.F) {
	const n, size = 12, 7
	ds, a := fuzzArchive(f, gen.CD(), n, 7)
	_, other := fuzzArchive(f, gen.HZ(), n, 8)
	q := newFuzzQueries(f, ds)
	enc := fuzzSidecar(f, a, size)
	f.Add(enc)
	f.Add(fuzzSidecar(f, other, size))
	f.Add(enc[:len(enc)-1])
	for _, off := range []int{len(enc) / 3, len(enc) / 2, len(enc) - 2} {
		mut := bytes.Clone(enc)
		mut[off] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := stiu.DecodeSidecar(data, a.Graph, n, size, fuzzOpts)
		if err != nil {
			return
		}
		q.run(ix, a)
	})
}

// withTemporal returns a sidecar of numTrajs trajectories with
// trajectory j's temporal section (FORMAT.md §5.1) replaced by section.
func withTemporal(enc []byte, numTrajs, j int, section []byte) []byte {
	const hdr = 36
	dir := enc[hdr : hdr+4*(numTrajs+1)]
	blob := hdr + len(dir)
	lo, hi := int(binary.LittleEndian.Uint32(dir[4*j:])), int(binary.LittleEndian.Uint32(dir[4*j+4:]))
	out := slices.Concat(enc[:blob+lo], section, enc[blob+hi:])
	for k := j + 1; k <= numTrajs; k++ {
		off := int(binary.LittleEndian.Uint32(dir[4*k:]))
		binary.LittleEndian.PutUint32(out[hdr+4*k:], uint32(off+len(section)-(hi-lo)))
	}
	return out
}

// TestWhenSpanBoundedByIndex gives trajectory 0 temporal entries ten
// billion intervals apart: no trajectory spans more intervals than the
// index holds, so When must fail at once instead of probing every
// interval between them.
func TestWhenSpanBoundedByIndex(t *testing.T) {
	const n, size = 12, 7
	ds, a := fuzzArchive(t, gen.CD(), n, 7)
	section := binary.AppendUvarint(nil, 2)            // two entries
	section = binary.AppendVarint(section, 0)          // start
	section = append(section, 0, 0)                    // no 0, pos 0
	section = binary.AppendUvarint(section, 1800*1e10) // start delta
	section = append(section, 2, 1)                    // no 1, pos −1
	enc := withTemporal(fuzzSidecar(t, a, size), n, 0, section)
	ix, err := stiu.DecodeSidecar(enc, a.Graph, n, size, fuzzOpts)
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := ix.TemporalEntries(0); err != nil || len(entries) != 2 {
		t.Fatalf("crafted section: %v, %v", entries, err)
	}
	q := newFuzzQueries(t, ds)
	if _, err := NewEngine(a, ix).When(0, q.locs[0], 0); err == nil || !strings.Contains(err.Error(), "more than the index's") {
		t.Fatalf("When over a ten-billion-interval span: err = %v", err)
	}
}
