package stiu

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
)

// FuzzSidecarDecode throws arbitrary bytes at the sidecar decoder —
// seeded with a real encoding, cuts of it, bucket blobs whose declared
// length is one byte short or long, an out-of-range probability
// exponent, an exception tuple, a group index one past the table and a
// rank one past the candidate set, so mutations explore the rank
// directories, the group tables, the first-touch bucket boundary pass
// and the lazy temporal sections rather than dying at the header.  Whatever decodes must also survive every lazy accessor
// and a full walk of the buckets without panicking; errors are fine.
func FuzzSidecarDecode(f *testing.F) {
	opts := Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 12, 12
	ds, err := gen.Build(p, 12, 7)
	if err != nil {
		f.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		f.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := Build(a, opts)
	if err != nil {
		f.Fatal(err)
	}
	const archiveSize = 7
	enc, err := ix.EncodeSidecar(archiveSize)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-1]) // cut inside the last interval's bucket blob
	f.Add(enc[:len(enc)/2])
	f.Add([]byte("UTCI"))
	numTrajs, nbits := len(a.Trajs), opts.GridNX*opts.GridNY
	sp := intervalAt(f, enc, numTrajs, nbits, 0)
	f.Add(enc[:sp.blobOff+sp.blobLen/2]) // cut inside the first interval's bucket blob
	f.Add(withUvarintAt(enc, sp.lenOff, uint64(sp.blobLen-1)))
	f.Add(withUvarintAt(enc, sp.lenOff, uint64(sp.blobLen+1)))
	badExp := bytes.Clone(enc)
	badExp[35] = maxPExp + 1
	f.Add(badExp)

	// Group-table seeds on the first interval: its first bucket's first
	// tuple made an exception (an explicit pair follows), or pointed one
	// past the group table, and its table's first rank one past the
	// candidate set.  Each still parses; the last two fail on first touch.
	id := rectIntervals(ix)[0]
	cands, err := ix.Candidates(id)
	if err != nil {
		f.Fatal(err)
	}
	nGroups, nlen := binary.Uvarint(enc[sp.groupsOff:])
	_, nrLen := binary.Uvarint(enc[sp.blobOff:])
	codeOff := sp.blobOff + nrLen
	code, codeLen := binary.Uvarint(enc[codeOff:])
	_, rankLen := binary.Uvarint(enc[sp.groupsOff+nlen:])
	if code&tupleException != 0 {
		f.Fatal("the fixture's first tuple is already an exception")
	}
	for _, seed := range []struct {
		data []byte
		want string
	}{
		{spliceSection(enc, sp.lenOff, sp.blobLen, codeOff, codeLen,
			append(binary.AppendUvarint(nil, code|tupleException), 1, 0)), ""},
		{spliceSection(enc, sp.lenOff, sp.blobLen, codeOff, codeLen,
			binary.AppendUvarint(nil, nGroups<<2|code&3)), "group index past table"},
		{spliceSection(enc, sp.groupsLenOff, sp.groupsLen, sp.groupsOff+nlen, rankLen,
			binary.AppendUvarint(nil, uint64(len(cands)))), "rank past candidate set"},
	} {
		dec, err := DecodeSidecar(seed.data, a.Graph, numTrajs, archiveSize, opts)
		if err != nil {
			f.Fatalf("%q seed does not parse: %v", seed.want, err)
		}
		_, err = dec.AppendBucketsInRect(nil, id, dec.Bounds())
		if (err == nil) != (seed.want == "") || err != nil && !strings.Contains(err.Error(), seed.want) {
			f.Fatalf("seed: err = %v, want %q", err, seed.want)
		}
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeSidecar(data, a.Graph, numTrajs, archiveSize, opts)
		if err != nil {
			return
		}
		// Lazy accessors on hostile layouts: bounds failures must surface
		// as errors, never as panics or out-of-range ranks.
		for id := range dec.Intervals {
			for re := 0; re < opts.GridNX*opts.GridNY; re += 5 {
				_, _ = dec.Buckets(id, roadnet.RegionID(re))
			}
		}
		touchAll(dec)
	})
}

// FuzzAppendBucketsInRect holds the row-walking rectangle accessor to
// the per-cell probe oracle of TestAppendBucketsInRectMatchesProbe over
// fuzzed grid dimensions (1..128 per axis), rectangle corners given as
// fractions of the bounds (NaN, infinite, inverted and outside included)
// and the interval, present or absent, on a built index and on two
// decodes of its sidecar.
func FuzzAppendBucketsInRect(f *testing.F) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 12, 12
	ds, err := gen.Build(p, 12, 7)
	if err != nil {
		f.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		f.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(63), uint8(63), 0.1, 0.2, 0.6, 0.9, uint8(0))
	f.Add(uint8(36), uint8(22), -0.3, 0.2, 1.4, 0.7, uint8(1))
	f.Add(uint8(99), uint8(2), 0.9, 0.1, 0.1, 0.9, uint8(0))
	f.Add(uint8(0), uint8(0), 0.5, 0.5, 0.5, 0.5, uint8(255))
	bounds := a.Graph.Bounds()
	f.Fuzz(func(t *testing.T, nx, ny uint8, x0, y0, x1, y1 float64, pick uint8) {
		opts := Options{GridNX: int(nx)%128 + 1, GridNY: int(ny)%128 + 1, IntervalDur: 1800}
		_, pairs := rectVariants(t, a, opts)
		ivs := rectIntervals(pairs[0][0])
		iv := ivs[int(pick)%len(ivs)]
		r := rectAt(bounds, x0, y0, x1, y1)
		for _, pair := range pairs {
			checkRectMatchesProbe(t, pair[0], pair[1], iv, r, nil)
		}
	})
}
