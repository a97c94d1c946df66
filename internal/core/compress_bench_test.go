package core

import (
	"testing"

	"utcq/internal/gen"
)

// BenchmarkCompressOne is the per-trajectory hot path of the write
// pipeline (reference selection + referential factorization + SIAR/PDDP
// encoding of one uncertain trajectory).
func BenchmarkCompressOne(b *testing.B) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 24, 7)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCompressor(ds.Graph, DefaultOptions(p.Ts))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.CompressOne(ds.Trajectories[i%len(ds.Trajectories)]); err != nil {
			b.Fatal(err)
		}
	}
}
