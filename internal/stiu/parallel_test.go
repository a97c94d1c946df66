package stiu

import (
	"bytes"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
)

// TestBuildParallelDeterministic: the index built with any worker count
// must encode to the same sidecar bytes as the serial (Parallelism: 1)
// build — temporal entries, interval trajectory lists and every cell's
// tuple order.
func TestBuildParallelDeterministic(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}

	build := func(parallelism int) []byte {
		ix, err := Build(a, Options{GridNX: 16, GridNY: 16, IntervalDur: 1800, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ix.EncodeSidecar(1)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	want := build(1)
	for _, workers := range []int{0, 2, 4, 7} {
		if got := build(workers); !bytes.Equal(got, want) {
			t.Errorf("Parallelism=%d: sidecar bytes differ from serial", workers)
		}
	}

	// Serial rebuild is also self-identical (no map-order leaks anywhere).
	if again := build(1); !bytes.Equal(again, want) {
		t.Error("two serial builds differ: nondeterministic tuple order")
	}
}
