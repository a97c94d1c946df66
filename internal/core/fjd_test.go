package core

import (
	"math"
	"testing"

	"utcq/internal/paperfix"
	"utcq/internal/traj"
)

// TestExample1FJD reproduces Example 1: with piv1 = Tu13,
// FJD(Tu11 → Tu12, piv1) = (1/8 + 1/8 + 3/4 + 1)/4 = 1/2.
func TestExample1FJD(t *testing.T) {
	comW := FactorsSL(eTu11, eTu13) // ⟨(0,8),(5,1)⟩
	comV := FactorsSL(eTu12, eTu13) // ⟨(0,1),(0,1),(2,6),(5,1)⟩
	got := FJD(comW, comV)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FJD = %g, want 0.5", got)
	}
	// The individual sim terms of Example 1.
	wants := []float64{1.0 / 8, 1.0 / 8, 3.0 / 4, 1}
	for i, fv := range comV {
		if got := simFactor(fv, comW); math.Abs(got-wants[i]) > 1e-12 {
			t.Errorf("sim factor %d = %g, want %g", i, got, wants[i])
		}
	}
}

// TestExample2Scores checks SF(Tu11, Tu12) = p(Tu11) * FJD = 0.75 * 0.5 = 3/8,
// the value shown in the Example 2 score matrix.
func TestExample2Scores(t *testing.T) {
	fx := paperfix.MustNew()
	// Force piv1 = Tu13 as in the example.
	ps := PivotSet{
		Pivots: []int{2},
		Coms: [][][]PivotFactor{{
			FactorsSL(eTu11, eTu13),
			FactorsSL(eTu12, eTu13),
			FactorsSL(eTu13, eTu13),
		}},
	}
	if got := ps.Score(fx.Tu1, 0, 1); math.Abs(got-3.0/8) > 1e-12 {
		t.Errorf("SF(Tu11, Tu12) = %g, want 3/8", got)
	}
	if got := ps.Score(fx.Tu1, 0, 0); got != 0 {
		t.Errorf("SF(w, w) = %g, want 0", got)
	}
}

// TestExample2Selection: the greedy algorithm must select Tu11 as the only
// reference with Rrs = {Tu12, Tu13}.
func TestExample2Selection(t *testing.T) {
	fx := paperfix.MustNew()
	sel := SelectReferences(fx.Tu1, 1)
	if !sel.Validate() {
		t.Fatal("invalid selection")
	}
	if sel.RefOf[0] != -1 || sel.RefOf[1] != 0 || sel.RefOf[2] != 0 {
		t.Fatalf("RefOf = %v, want Tu11 the only reference, representing both others", sel.RefOf)
	}
	if got := sel.Rrs(0); len(got) != 2 {
		t.Errorf("Rrs(Tu11) = %v", got)
	}
	if sel.NumRefs() != 1 {
		t.Errorf("NumRefs = %d", sel.NumRefs())
	}
}

// TestFJDMotivation reproduces the motivating discussion of Section 4.3:
// the plain Jaccard distance between ComE(Tu11, piv1) = ⟨(0,8),(5,1)⟩ and
// ComE(Tu15, piv1) = ⟨(0,7)⟩ is 1 (no common factors), but FJD still
// recognizes the similarity.
func TestFJDMotivation(t *testing.T) {
	eTu15 := []uint16{1, 2, 1, 2, 2, 0, 4}
	comW := FactorsSL(eTu11, eTu13)
	comV := FactorsSL(eTu15, eTu13)
	if len(comV) != 1 || comV[0].S != 0 || comV[0].L != 7 {
		t.Fatalf("ComE(Tu15, piv1) = %+v, want [(0,7)]", comV)
	}
	if got := FJD(comW, comV); got < 0.4 {
		t.Errorf("FJD = %g, want high similarity despite disjoint factor sets", got)
	}
}

func TestFJDProperties(t *testing.T) {
	// Identical representations (single full-length factor) score 1.
	com := []PivotFactor{{S: 0, L: 9}}
	if got := FJD(com, com); got != 1 {
		t.Errorf("FJD(self) = %g", got)
	}
	// All-omitted representations score 0.
	om := []PivotFactor{{Omitted: true}, {Omitted: true}}
	if got := FJD(om, com); got != 0 {
		t.Errorf("FJD with omitted w = %g", got)
	}
	if got := FJD(com, om); got != 0 {
		t.Errorf("FJD with omitted v = %g", got)
	}
	// FJD is bounded by 1.
	a := []PivotFactor{{S: 0, L: 3}, {S: 4, L: 2}}
	b := []PivotFactor{{S: 0, L: 3}, {S: 4, L: 2}}
	if got := FJD(a, b); got > 1+1e-12 {
		t.Errorf("FJD = %g > 1", got)
	}
}

func TestSelectPivotsDistinct(t *testing.T) {
	fx := paperfix.MustNew()
	for np := 1; np <= 5; np++ {
		ps := SelectPivots(fx.Tu1, np)
		want := np
		if want > len(fx.Tu1.Instances) {
			want = len(fx.Tu1.Instances)
		}
		if len(ps.Pivots) != want {
			t.Errorf("np=%d: got %d pivots", np, len(ps.Pivots))
		}
		seen := map[int]bool{}
		for _, p := range ps.Pivots {
			if seen[p] {
				t.Errorf("np=%d: duplicate pivot %d", np, p)
			}
			seen[p] = true
		}
		if len(ps.Coms) != len(ps.Pivots) {
			t.Errorf("np=%d: coms/pivots mismatch", np)
		}
	}
}

// TestSelectionConstraints: on arbitrary inputs the two constraints hold:
// single reference per non-reference and single-order compression.
func TestSelectionConstraints(t *testing.T) {
	fx := paperfix.MustNew()
	sel := SelectReferences(fx.Tu1, 2)
	if !sel.Validate() {
		t.Fatal("selection violates constraints")
	}
	// Single instance trajectory: it is its own reference.
	one := &traj.Uncertain{T: fx.Tu1.T, Instances: fx.Tu1.Instances[:1]}
	sel1 := SelectReferences(one, 1)
	if sel1.RefOf[0] != -1 || !sel1.Validate() {
		t.Error("single instance must be a reference")
	}
}

// TestSelectionDifferentSV: instances with different start vertices are
// never paired.
func TestSelectionDifferentSV(t *testing.T) {
	fx := paperfix.MustNew()
	u := &traj.Uncertain{T: fx.Tu1.T}
	u.Instances = append(u.Instances, fx.Tu1.Instances...)
	// Forge an instance starting elsewhere (v2) with an otherwise similar
	// shape: drop the first edge of Tu11 and its first point.
	alt := fx.Tu1.Instances[0]
	alt.SV = fx.IDs["v2"]
	alt.E = alt.E[1:]
	alt.TF = append([]bool{true}, alt.TF[2:]...)
	alt.D = alt.D[1:]
	alt.P = 0.0
	for i := range u.Instances {
		u.Instances[i].P *= 0.9
	}
	alt.P = 0.1
	u.Instances = append(u.Instances, alt)
	sel := SelectReferences(u, 2)
	if !sel.Validate() {
		t.Fatal("invalid selection")
	}
	if sel.RefOf[3] != -1 {
		t.Error("different-SV instance must become a standalone reference")
	}
	for v, r := range sel.RefOf {
		if r == 3 {
			t.Errorf("instance %d assigned to different-SV reference", v)
		}
	}
}
