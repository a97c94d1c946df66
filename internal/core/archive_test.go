package core

import (
	"fmt"
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
	pos := encodeT(w, fx.Tu1.T, paperfix.Ts)
	if len(pos) != 6 {
		t.Fatalf("%d delta positions", len(pos))
	}
	deltaBits := w.Len() - pos[0]
	if deltaBits != 12 {
		t.Errorf("delta codes = %d bits, want 12", deltaBits)
	}
	r := bitio.NewReaderBits(w.Bytes(), w.Len())
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

func TestRefViewPartialAccess(t *testing.T) {
	fx, a := compressFixture(t, 1)
	rec := a.Trajs[0]
	refOrig := rec.RefOrigByWrite[0]
	if refOrig != 0 {
		t.Fatalf("reference is instance %d, want Tu11", refOrig)
	}
	rv, err := a.RefView(0, refOrig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv.E, fx.Tu1.Instances[0].E) {
		t.Errorf("ref E = %v", rv.E)
	}
	// Omega over stored TF ⟨0,1,0,1,1,1,1⟩: prefix counts 0,0,1,1,2,3,4,5.
	wantOmega := []int{0, 0, 1, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(rv.Omega(), wantOmega) {
		t.Errorf("omega = %v, want %v", rv.Omega(), wantOmega)
	}
	// γ over the original ⟨1,0,1,0,1,1,1,1,1⟩.
	wantGamma := []int{1, 1, 2, 2, 3, 4, 5, 6, 7}
	for g, want := range wantGamma {
		if got := rv.OnesUpToOriginal(g); got != want {
			t.Errorf("gamma[%d] = %d, want %d", g, got, want)
		}
	}
	// Point positions: points 0..6 live at E positions 0,2,4,5,6,7,8.
	wantPos := []int{0, 2, 4, 5, 6, 7, 8}
	for k, want := range wantPos {
		got, err := rv.PositionOfPoint(k)
		if err != nil || got != want {
			t.Errorf("PositionOfPoint(%d) = %d, %v; want %d", k, got, err, want)
		}
	}
	// Partial D decode matches the full decode.
	for k, want := range fx.Tu1.Instances[0].D {
		got, err := rv.DecodeD(k)
		if err != nil {
			t.Fatal(err)
		}
		if diff := want - got; diff < 0 || diff > a.Opts.EtaD {
			t.Errorf("DecodeD(%d) = %g, want ~%g", k, got, want)
		}
	}
}

func TestNonRefViewPartialOnes(t *testing.T) {
	fx, a := compressFixture(t, 1)
	rv, err := a.RefView(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range []int{1, 2} {
		nv, err := a.NonRefView(0, orig, rv)
		if err != nil {
			t.Fatal(err)
		}
		ins := &fx.Tu1.Instances[orig]
		if nv.ECount() != len(ins.E) {
			t.Errorf("instance %d: ECount = %d, want %d", orig, nv.ECount(), len(ins.E))
		}
		stored := StoredTF(ins.TF)
		if nv.TFStoredLen(rv) != len(stored) {
			t.Errorf("instance %d: TF stored len = %d", orig, nv.TFStoredLen(rv))
		}
		// StoredOnesUpTo must agree with a direct count at every prefix.
		for g := 0; g <= len(stored); g++ {
			want := 0
			for _, b := range stored[:g] {
				if b {
					want++
				}
			}
			if got := nv.StoredOnesUpTo(rv, g); got != want {
				t.Errorf("instance %d: StoredOnesUpTo(%d) = %d, want %d", orig, g, got, want)
			}
		}
		// γ and point positions against the original bit-string.
		for g := 0; g < len(ins.TF); g++ {
			want := 0
			for _, b := range ins.TF[:g+1] {
				if b {
					want++
				}
			}
			if got := nv.OnesUpToOriginal(rv, g); got != want {
				t.Errorf("instance %d: gamma[%d] = %d, want %d", orig, g, got, want)
			}
		}
		for k := range ins.D {
			want := -1
			seen := 0
			for g, b := range ins.TF {
				if b {
					if seen == k {
						want = g
						break
					}
					seen++
				}
			}
			got, err := nv.PositionOfPoint(rv, k)
			if err != nil || got != want {
				t.Errorf("instance %d: PositionOfPoint(%d) = %d, %v; want %d", orig, k, got, err, want)
			}
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

// DPos returns the bit position of every relative-distance code (the
// paper's d.pos values).  Positions after a decode failure stay at the
// failure point; the error surfaces through DecodeD/D instead.
func (v *RefView) DPos() []int {
	rec := v.arch.Trajs[v.traj]
	dPos := make([]int, rec.NumPoints)
	r, err := rec.Reader(v.dStart)
	if err != nil {
		return dPos
	}
	for i := range dPos {
		dPos[i] = r.Pos()
		if _, err := v.arch.DCodec.Decode(r); err != nil {
			break
		}
	}
	return dPos
}

// DecodeD partially decompresses the k-th relative distance by seeking to
// its d.pos, the per-point access the paper's position fields allow.
func (v *RefView) DecodeD(k int) (float64, error) {
	dpos := v.DPos()
	if k < 0 || k >= len(dpos) {
		return 0, fmt.Errorf("core: point index %d outside %d", k, len(dpos))
	}
	rec := v.arch.Trajs[v.traj]
	var r bitio.Reader
	r.Reset(rec.Bits, rec.BitLen)
	if err := r.Seek(dpos[k]); err != nil {
		return 0, err
	}
	return v.arch.DCodec.Decode(&r)
}
