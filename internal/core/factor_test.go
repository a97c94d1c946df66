package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"utcq/internal/paperfix"
	"utcq/internal/pddp"
)

var (
	eTu11 = []uint16{1, 2, 1, 2, 2, 0, 4, 1, 0}
	eTu12 = []uint16{1, 1, 1, 2, 2, 0, 4, 1, 0}
	eTu13 = []uint16{1, 2, 1, 2, 2, 0, 4, 1, 2}
)

// TestTable4EFactors reproduces the (S,L,M) representations of Table 4:
// ComE(Nref111, Ref11) = ⟨(0,1,1),(2,7)⟩ and ComE(Nref112, Ref11) = ⟨(0,8,2)⟩.
func TestTable4EFactors(t *testing.T) {
	f12 := FactorsSLM(eTu12, eTu11)
	want12 := []EFactor{{S: 0, L: 1, M: 1, HasM: true}, {S: 2, L: 7}}
	if !reflect.DeepEqual(f12, want12) {
		t.Errorf("ComE(Tu12, Tu11) = %+v, want %+v", f12, want12)
	}
	f13 := FactorsSLM(eTu13, eTu11)
	want13 := []EFactor{{S: 0, L: 8, M: 2, HasM: true}}
	if !reflect.DeepEqual(f13, want13) {
		t.Errorf("ComE(Tu13, Tu11) = %+v, want %+v", f13, want13)
	}
}

// TestCaseBNotInRef reproduces Section 4.2's case B example: for
// E(Tu14) = ⟨3,2,1,2,2⟩ against Ref11, the first factor is (9, 3).
func TestCaseBNotInRef(t *testing.T) {
	f := FactorsSLM([]uint16{3, 2, 1, 2, 2}, eTu11)
	if len(f) == 0 || !f[0].NotInRef || f[0].S != 9 || f[0].M != 3 {
		t.Fatalf("first factor = %+v, want (S=9, M=3)", f)
	}
	out, err := ExpandE(f, eTu11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []uint16{3, 2, 1, 2, 2}) {
		t.Errorf("expand = %v", out)
	}
}

func TestExpandEInverts(t *testing.T) {
	for _, in := range [][]uint16{eTu12, eTu13, {1}, {9, 9, 9}, eTu11} {
		f := FactorsSLM(in, eTu11)
		out, err := ExpandE(f, eTu11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip of %v gave %v (factors %+v)", in, out, f)
		}
	}
}

func TestQuickEFactorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]uint16, rng.Intn(40)+1)
		for i := range ref {
			ref[i] = uint16(rng.Intn(5))
		}
		in := make([]uint16, rng.Intn(40)+1)
		for i := range in {
			in[i] = uint16(rng.Intn(6)) // may contain symbols absent from ref
		}
		out, err := ExpandE(FactorsSLM(in, ref), ref)
		return err == nil && reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPivotFactorsPaper reproduces the pivot representations of Section 4.3
// with piv1 = Tu13: ComE(Tu11, piv1) = ⟨(0,8),(5,1)⟩ and
// ComE(Tu12, piv1) = ⟨(0,1),(0,1),(2,6),(5,1)⟩.
func TestPivotFactorsPaper(t *testing.T) {
	c11 := FactorsSL(eTu11, eTu13)
	want11 := []PivotFactor{{S: 0, L: 8}, {S: 5, L: 1}}
	if !reflect.DeepEqual(c11, want11) {
		t.Errorf("ComE(Tu11, piv1) = %+v, want %+v", c11, want11)
	}
	c12 := FactorsSL(eTu12, eTu13)
	want12 := []PivotFactor{{S: 0, L: 1}, {S: 0, L: 1}, {S: 2, L: 6}, {S: 5, L: 1}}
	if !reflect.DeepEqual(c12, want12) {
		t.Errorf("ComE(Tu12, piv1) = %+v, want %+v", c12, want12)
	}
}

// TestPivotFactorsOmitted: a symbol absent from the pivot is omitted but
// still counted (Section 4.3).
func TestPivotFactorsOmitted(t *testing.T) {
	c := FactorsSL([]uint16{7, 1, 2}, eTu13)
	if len(c) != 2 || !c[0].Omitted || c[1].Omitted {
		t.Fatalf("factors = %+v", c)
	}
}

// TestTable4TFFactors reproduces ComT'(Nref111, Ref11) = ⟨(1,2),(3,4)⟩
// (stored bit-strings: Tu12 ⟨1,0,0,1,1,1,1⟩ vs Tu11 ⟨0,1,0,1,1,1,1⟩) and
// the identical case ComT'(Nref112, Ref11) = ∅.
func TestTable4TFFactors(t *testing.T) {
	fx := paperfix.MustNew()
	ref := StoredTF(fx.Tu1.Instances[0].TF)
	in12 := StoredTF(fx.Tu1.Instances[1].TF)
	f := FactorsTF(in12, ref)
	if len(f) != 2 {
		t.Fatalf("ComT' = %+v, want 2 factors", f)
	}
	if f[0].S != 1 || f[0].L != 2 || !f[0].HasM || f[0].M != false {
		t.Errorf("factor 1 = %+v, want (1,2) with M=0", f[0])
	}
	if f[1].S != 3 || f[1].L != 4 || f[1].HasM {
		t.Errorf("factor 2 = %+v, want (3,4) without M", f[1])
	}
	// The inferred-M convention of the paper must agree: the bit after
	// ref[1..3) is ref[3] = 1, so M = 0.
	if ref[f[0].S+f[0].L] != true {
		t.Error("inference precondition violated")
	}

	in13 := StoredTF(fx.Tu1.Instances[2].TF)
	if !reflect.DeepEqual(in13, ref) {
		t.Fatal("Tu13 stored TF should equal the reference's")
	}
}

func TestQuickTFFactorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]bool, rng.Intn(30)+1)
		for i := range ref {
			ref[i] = rng.Intn(2) == 1
		}
		in := make([]bool, rng.Intn(30))
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		out, err := ExpandTF(FactorsTF(in, ref), ref)
		if err != nil {
			return false
		}
		if len(out) == 0 && len(in) == 0 {
			return true
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTFFactorAllConstantRef exercises the degenerate case the paper leaves
// implicit: a reference bit-string with a single symbol still round-trips
// via explicit-M factors of length zero.
func TestTFFactorAllConstantRef(t *testing.T) {
	ref := []bool{true, true, true}
	in := []bool{false, false, true, false}
	out, err := ExpandTF(FactorsTF(in, ref), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip gave %v", out)
	}
}

// TestTable4DFactors reproduces ComD(Nref112, Ref11) = ⟨(6, 0.5)⟩ and
// ComD(Nref111, Ref11) = ∅.
func TestTable4DFactors(t *testing.T) {
	fx := paperfix.MustNew()
	codec := pddp.MustCodec(1.0 / 128)
	d11 := fx.Tu1.Instances[0].D
	d12 := fx.Tu1.Instances[1].D
	d13 := fx.Tu1.Instances[2].D
	if got := DiffD(d12, d11, codec); len(got) != 0 {
		t.Errorf("ComD(Tu12, Tu11) = %+v, want empty", got)
	}
	got := DiffD(d13, d11, codec)
	if len(got) != 1 || got[0].Pos != 6 || got[0].RD != 0.5 {
		t.Errorf("ComD(Tu13, Tu11) = %+v, want [(6, 0.5)]", got)
	}
	// Expansion patches only the differing position.
	refDecoded := make([]float64, len(d11))
	for i, v := range d11 {
		refDecoded[i] = codec.Quantize(v)
	}
	quantized := make([]DFactor, len(got))
	for i, f := range got {
		quantized[i] = DFactor{Pos: f.Pos, RD: codec.Quantize(f.RD)}
	}
	out, err := ExpandD(quantized, refDecoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if diff := d13[i] - out[i]; diff < 0 || diff > codec.Eta() {
			t.Errorf("pos %d: %g want within eta of %g", i, out[i], d13[i])
		}
	}
}

func TestStoredFullTF(t *testing.T) {
	full := []bool{true, false, true, true}
	stored := StoredTF(full)
	if !reflect.DeepEqual(stored, []bool{false, true}) {
		t.Errorf("stored = %v", stored)
	}
	if got := FullTF(stored, 4); !reflect.DeepEqual(got, full) {
		t.Errorf("full = %v", got)
	}
	if got := FullTF(nil, 2); !reflect.DeepEqual(got, []bool{true, true}) {
		t.Errorf("two-entry full = %v", got)
	}
}

// The expanders below invert the factorizations over materialized
// sequences.  The archive never expands a record this way (InstReader
// walks the factors against the reference's bits); they are the
// oracles the factor round-trip tests check against.

// ExpandE inverts FactorsSLM.
func ExpandE(factors []EFactor, ref []uint16) ([]uint16, error) {
	var out []uint16
	for i, f := range factors {
		if f.NotInRef {
			out = append(out, f.M)
			continue
		}
		if f.S < 0 || f.L < 0 || f.S+f.L > len(ref) {
			return nil, fmt.Errorf("core: factor %d (%d,%d) outside reference of length %d", i, f.S, f.L, len(ref))
		}
		out = append(out, ref[f.S:f.S+f.L]...)
		if f.HasM {
			out = append(out, f.M)
		} else if i != len(factors)-1 {
			return nil, errors.New("core: (S,L) factor before the end")
		}
	}
	return out, nil
}

// ExpandTF inverts FactorsTF.
func ExpandTF(factors []TFFactor, ref []bool) ([]bool, error) {
	var out []bool
	for i, f := range factors {
		if f.S < 0 || f.L < 0 || f.S+f.L > len(ref) {
			return nil, fmt.Errorf("core: TF factor %d (%d,%d) outside reference of length %d", i, f.S, f.L, len(ref))
		}
		out = append(out, ref[f.S:f.S+f.L]...)
		if f.HasM {
			out = append(out, f.M)
		} else if i != len(factors)-1 {
			return nil, errors.New("core: TF factor without M before the end")
		}
	}
	return out, nil
}

// ExpandD inverts DiffD given the reference's decoded distances.  Factor
// values are used verbatim: on the decode path they are already quantized
// (re-quantizing is not idempotent — a decoded value may admit an even
// shorter code within eta of itself, drifting past the error bound).
func ExpandD(factors []DFactor, refDecoded []float64) ([]float64, error) {
	out := make([]float64, len(refDecoded))
	copy(out, refDecoded)
	for _, f := range factors {
		if f.Pos < 0 || f.Pos >= len(out) {
			return nil, fmt.Errorf("core: D factor position %d outside %d points", f.Pos, len(out))
		}
		out[f.Pos] = f.RD
	}
	return out, nil
}

// FullTF restores a full bit-string from its stored form and the original
// length.
func FullTF(stored []bool, fullLen int) []bool {
	out := make([]bool, fullLen)
	out[0] = true
	out[fullLen-1] = true
	copy(out[1:], stored)
	return out
}
