package core

import (
	"math"
	"reflect"
	"testing"

	"utcq/internal/bitio"
	"utcq/internal/gen"
	"utcq/internal/paperfix"
	"utcq/internal/traj"
)

// TestSIARPaperExample reproduces Section 4.1: the running example's time
// sequence becomes ⟨5:03:25, 0, 1, 0, -1, 0, 0⟩ with Ts = 240.
func TestSIARPaperExample(t *testing.T) {
	fx := paperfix.MustNew()
	deltas := SIARDeltas(fx.Tu1.T, paperfix.Ts)
	want := []int64{0, 1, 0, -1, 0, 0}
	if !reflect.DeepEqual(deltas, want) {
		t.Fatalf("SIAR deltas = %v, want %v", deltas, want)
	}
	if got := SIARRestore(fx.Tu1.T[0], deltas, paperfix.Ts); !reflect.DeepEqual(got, fx.Tu1.T) {
		t.Errorf("restore = %v", got)
	}
	// The encoded time section: 1 flag + 17 bits t0, count, then 12 bits of
	// Exp-Golomb codes (the paper's "(12+17)" size statement).
	w := bitio.NewWriter(64)
	encodeT(w, fx.Tu1.T, paperfix.Ts)
	r := bitio.NewReaderBits(w.Bytes(), w.Len())
	if _, n, err := readTimeHeader(r); err != nil || n != 7 {
		t.Fatalf("time header: %d points, %v", n, err)
	}
	if deltaBits := w.Len() - r.Pos(); deltaBits != 12 {
		t.Errorf("delta codes = %d bits, want 12", deltaBits)
	}
	r = bitio.NewReaderBits(w.Bytes(), w.Len())
	got, err := decodeT(r, paperfix.Ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fx.Tu1.T) {
		t.Errorf("decodeT = %v", got)
	}
}

func compressFixture(t *testing.T, numPivots int) (*paperfix.Fixture, *Archive) {
	t.Helper()
	fx := paperfix.MustNew()
	opts := DefaultOptions(paperfix.Ts)
	opts.NumPivots = numPivots
	c, err := NewCompressor(fx.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress([]*traj.Uncertain{fx.Tu1})
	if err != nil {
		t.Fatal(err)
	}
	return fx, a
}

func TestCompressDecodePaperExample(t *testing.T) {
	fx, a := compressFixture(t, 1)
	if a.Stats.NumInstances != 3 || a.Stats.NumReferences != 1 {
		t.Fatalf("stats: %d instances, %d references", a.Stats.NumInstances, a.Stats.NumReferences)
	}
	got, err := a.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	u := got[0]
	if !reflect.DeepEqual(u.T, fx.Tu1.T) {
		t.Errorf("T = %v", u.T)
	}
	for i := range fx.Tu1.Instances {
		want := &fx.Tu1.Instances[i]
		ins := &u.Instances[i]
		if ins.SV != want.SV {
			t.Errorf("instance %d: SV = %d", i, ins.SV)
		}
		if !reflect.DeepEqual(ins.E, want.E) {
			t.Errorf("instance %d: E = %v, want %v", i, ins.E, want.E)
		}
		if !reflect.DeepEqual(ins.TF, want.TF) {
			t.Errorf("instance %d: TF = %v, want %v", i, ins.TF, want.TF)
		}
		for k := range want.D {
			if d := want.D[k] - ins.D[k]; d < 0 || d > a.Opts.EtaD {
				t.Errorf("instance %d point %d: D %g vs %g", i, k, ins.D[k], want.D[k])
			}
		}
		if d := math.Abs(want.P - ins.P); d > a.Opts.EtaP {
			t.Errorf("instance %d: P %g vs %g", i, ins.P, want.P)
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	_, a := compressFixture(t, 1)
	if a.Stats.CompTotal() >= a.Stats.Raw.Total() {
		t.Errorf("no compression: %d >= %d bits", a.Stats.CompTotal(), a.Stats.Raw.Total())
	}
	for _, r := range []float64{a.Stats.RatioT(), a.Stats.RatioE(), a.Stats.RatioD(), a.Stats.RatioTF(), a.Stats.RatioP()} {
		if r <= 1 {
			t.Errorf("component ratio %g <= 1 (stats %+v)", r, a.Stats)
		}
	}
}

// checkInstReaderPaperExample walks Tu1's instances orig with one reader,
// forward off the reference's bits as Section 5.1 reads them: each
// instance's E and T' from Next, the E factor of every position against
// FactorsSLM's spans (−1 throughout for a reference), D from NextD within
// η_D, and p bit for bit as the directory holds it. It returns, per
// instance, the E positions at which Next set the point flag.
func checkInstReaderPaperExample(t *testing.T, origs ...int) [][]int {
	t.Helper()
	fx, a := compressFixture(t, 1)
	rec := a.Trajs[0]
	if rec.Insts[0].RefOrig >= 0 {
		t.Fatal("Tu11 is not a reference")
	}
	var c InstReader
	var all [][]int
	for _, orig := range origs {
		want, meta := &fx.Tu1.Instances[orig], rec.Insts[orig]
		if err := c.Reset(a, 0, orig); err != nil {
			t.Fatal(err)
		}
		if c.SV() != want.SV {
			t.Errorf("instance %d: SV = %d, want %d", orig, c.SV(), want.SV)
		}
		if math.Float64bits(c.P()) != math.Float64bits(meta.P) {
			t.Errorf("instance %d: P = %g, directory holds %g", orig, c.P(), meta.P)
		}
		var wantFactor []int
		if meta.RefOrig < 0 {
			for range want.E {
				wantFactor = append(wantFactor, -1)
			}
		} else {
			for h, f := range FactorsSLM(want.E, fx.Tu1.Instances[meta.RefOrig].E) {
				n := 1
				if !f.NotInRef {
					n = f.L
					if f.HasM {
						n++
					}
				}
				for range n {
					wantFactor = append(wantFactor, h)
				}
			}
		}
		var e []uint16
		var tf []bool
		var factor, points []int
		for i := 0; !c.Done(); i++ {
			no, flag, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			e, tf, factor = append(e, no), append(tf, flag), append(factor, c.Factor())
			if flag {
				points = append(points, i)
			}
		}
		if !reflect.DeepEqual(e, want.E) || !reflect.DeepEqual(tf, want.TF) {
			t.Errorf("instance %d: E = %v, T' = %v; want %v, %v", orig, e, tf, want.E, want.TF)
		}
		if !reflect.DeepEqual(factor, wantFactor) {
			t.Errorf("instance %d: factor indices %v, want %v", orig, factor, wantFactor)
		}
		for k, wd := range want.D {
			d, err := c.NextD()
			if err != nil {
				t.Fatal(err)
			}
			if diff := wd - d; diff < 0 || diff > a.Opts.EtaD {
				t.Errorf("instance %d: D[%d] = %g, want ~%g", orig, k, d, wd)
			}
		}
		if _, err := c.NextD(); err == nil {
			t.Errorf("instance %d: NextD past the last point succeeded", orig)
		}
		all = append(all, points)
	}
	return all
}

// TestRefViewPartialAccess reads the reference Tu11 through InstReader.
func TestRefViewPartialAccess(t *testing.T) {
	points := checkInstReaderPaperExample(t, 0)[0]
	// Tu11's points 0..6 live at E positions 0,2,4,5,6,7,8.
	if wantPos := []int{0, 2, 4, 5, 6, 7, 8}; !reflect.DeepEqual(points, wantPos) {
		t.Errorf("Tu11 point positions %v, want %v", points, wantPos)
	}
}

// TestNonRefViewPartialOnes reads the non-references Tu12 and Tu13, which
// are decoded off the reference's bits, through InstReader.
func TestNonRefViewPartialOnes(t *testing.T) {
	fx, _ := compressFixture(t, 1)
	for i, points := range checkInstReaderPaperExample(t, 1, 2) {
		orig := 1 + i
		var wantPos []int
		for g, b := range fx.Tu1.Instances[orig].TF {
			if b {
				wantPos = append(wantPos, g)
			}
		}
		if !reflect.DeepEqual(points, wantPos) {
			t.Errorf("instance %d: point positions %v, want %v", orig, points, wantPos)
		}
	}
}

// TestCompressGenerated round-trips a generated dataset across profiles
// and pivot counts.
func TestCompressGenerated(t *testing.T) {
	for _, base := range gen.Profiles() {
		p := base
		p.Network.Cols, p.Network.Rows = 20, 20
		ds, err := gen.Build(p, 25, 99)
		if err != nil {
			t.Fatal(err)
		}
		for np := 1; np <= 3; np++ {
			opts := DefaultOptions(p.Ts)
			opts.NumPivots = np
			c, err := NewCompressor(ds.Graph, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.Compress(ds.Trajectories)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range got {
				wantU := ds.Trajectories[j]
				if !reflect.DeepEqual(u.T, wantU.T) {
					t.Fatalf("%s np=%d traj %d: T mismatch", p.Name, np, j)
				}
				for i := range wantU.Instances {
					w, g := &wantU.Instances[i], &u.Instances[i]
					if w.SV != g.SV || !reflect.DeepEqual(w.E, g.E) || !reflect.DeepEqual(w.TF, g.TF) {
						t.Fatalf("%s np=%d traj %d inst %d: lossless parts differ", p.Name, np, j, i)
					}
					for k := range w.D {
						if d := w.D[k] - g.D[k]; d < 0 || d > opts.EtaD+1e-12 {
							t.Fatalf("%s traj %d inst %d point %d: D error %g", p.Name, j, i, k, d)
						}
					}
					if d := math.Abs(w.P - g.P); d > opts.EtaP+1e-12 {
						t.Fatalf("%s traj %d inst %d: P error %g", p.Name, j, i, d)
					}
				}
			}
			if a.Stats.TotalRatio() <= 1 {
				t.Errorf("%s np=%d: total ratio %g <= 1", p.Name, np, a.Stats.TotalRatio())
			}
		}
	}
}

// TestMorePivotsNeverFewerRefsOnPaperExample is a smoke check that pivot
// count only affects selection quality, not correctness.
func TestPivotCountsStillDecode(t *testing.T) {
	for np := 1; np <= 5; np++ {
		fx, a := compressFixture(t, np)
		got, err := a.DecodeAll()
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if !reflect.DeepEqual(got[0].Instances[0].E, fx.Tu1.Instances[0].E) {
			t.Errorf("np=%d: decode mismatch", np)
		}
	}
}
