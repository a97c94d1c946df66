package core

import "utcq/internal/pddp"

// EFactor is one factor of the referential representation of an edge
// sequence (Section 4.2).  Three forms exist:
//
//	(S, L, M) — copy ref[S:S+L], then append M (HasM true)
//	(S, L)    — copy ref[S:S+L]; final factor only (HasM false)
//	(S=|ref|, M) — the symbol M does not occur in the reference
//	               (NotInRef true; L is implicitly 1: just M)
type EFactor struct {
	S, L     int
	M        uint16
	HasM     bool
	NotInRef bool
}

// RefIndex is a per-symbol position index over one reference sequence,
// built once and reused to factor every non-reference against it.  It
// replaces the O(|ref|·|input|) scan of the naive longest-match with
// candidate lists keyed by the first two symbols (CSR layout for the small
// out-degree alphabets real edge sequences have, map fallback otherwise).
// Matching semantics are exactly leftmost-longest, so the factor lists —
// and therefore the archive bytes — are identical to the naive scan's
// (FuzzFactorsRoundTrip cross-checks against it).
type RefIndex struct {
	ref []uint16

	// Flat CSR layout, used when the alphabet fits flatAlphabetMax.
	alpha     int
	first     []int32 // [alpha] leftmost occurrence of each symbol, -1 if absent
	pairStart []int32 // [alpha*alpha+1] bucket offsets into pairPos
	pairPos   []int32 // start positions grouped by symbol pair, ascending

	// Map fallback for pathological alphabets.
	firstM map[uint16]int32
	pairsM map[uint32][]int32
}

// flatAlphabetMax bounds the flat layout: alphabets up to this size use
// O(alpha^2) bucket offsets (at most 16 KiB of offsets), larger ones
// (unusual for out-degree-numbered edges) fall back to maps.
const flatAlphabetMax = 64

// NewRefIndex builds the position index of ref.
func NewRefIndex(ref []uint16) *RefIndex {
	ix := &RefIndex{ref: ref}
	maxSym := 0
	for _, s := range ref {
		if int(s) > maxSym {
			maxSym = int(s)
		}
	}
	if len(ref) > 0 && maxSym < flatAlphabetMax {
		ix.buildFlat(maxSym + 1)
	} else if len(ref) > 0 {
		ix.buildMap()
	}
	return ix
}

func (ix *RefIndex) buildFlat(alpha int) {
	ref := ix.ref
	ix.alpha = alpha
	ix.first = make([]int32, alpha)
	for i := range ix.first {
		ix.first[i] = -1
	}
	ix.pairStart = make([]int32, alpha*alpha+1)
	for i := len(ref) - 1; i >= 0; i-- {
		ix.first[ref[i]] = int32(i)
	}
	if len(ref) < 2 {
		return
	}
	// Counting sort of pair start positions: count, prefix, fill.
	for i := 0; i+1 < len(ref); i++ {
		ix.pairStart[int(ref[i])*alpha+int(ref[i+1])+1]++
	}
	for i := 1; i < len(ix.pairStart); i++ {
		ix.pairStart[i] += ix.pairStart[i-1]
	}
	ix.pairPos = make([]int32, len(ref)-1)
	fill := make([]int32, alpha*alpha)
	copy(fill, ix.pairStart[:alpha*alpha])
	for i := 0; i+1 < len(ref); i++ {
		p := int(ref[i])*alpha + int(ref[i+1])
		ix.pairPos[fill[p]] = int32(i)
		fill[p]++
	}
}

func (ix *RefIndex) buildMap() {
	ref := ix.ref
	ix.firstM = make(map[uint16]int32)
	ix.pairsM = make(map[uint32][]int32)
	for i, s := range ref {
		if _, ok := ix.firstM[s]; !ok {
			ix.firstM[s] = int32(i)
		}
		if i+1 < len(ref) {
			k := uint32(s)<<16 | uint32(ref[i+1])
			ix.pairsM[k] = append(ix.pairsM[k], int32(i))
		}
	}
}

// firstOf returns the leftmost occurrence of sym, or -1.
func (ix *RefIndex) firstOf(sym uint16) int32 {
	if ix.first != nil {
		if int(sym) >= ix.alpha {
			return -1
		}
		return ix.first[sym]
	}
	if p, ok := ix.firstM[sym]; ok {
		return p
	}
	return -1
}

// pairCandidates returns the ascending start positions of the symbol pair.
func (ix *RefIndex) pairCandidates(a, b uint16) []int32 {
	if ix.first != nil {
		if int(a) >= ix.alpha || int(b) >= ix.alpha {
			return nil
		}
		p := int(a)*ix.alpha + int(b)
		return ix.pairPos[ix.pairStart[p]:ix.pairStart[p+1]]
	}
	return ix.pairsM[uint32(a)<<16|uint32(b)]
}

// longestMatch returns the leftmost longest match of a prefix of needle
// inside the indexed reference: start S and length L (L == 0 when
// needle[0] is absent).
func (ix *RefIndex) longestMatch(needle []uint16) (int, int) {
	if len(needle) == 0 {
		return 0, 0
	}
	f := ix.firstOf(needle[0])
	if f < 0 {
		return 0, 0
	}
	bestS, bestL := int(f), 1
	if len(needle) == 1 {
		return bestS, bestL
	}
	ref := ix.ref
	for _, s32 := range ix.pairCandidates(needle[0], needle[1]) {
		s := int(s32)
		if s+bestL >= len(ref) {
			// Candidates ascend, so no later start can exceed bestL.
			break
		}
		// To beat bestL the candidate must match needle at offset bestL.
		if ref[s+bestL] != needle[bestL] {
			continue
		}
		l := 2 // the pair bucket guarantees offsets 0 and 1 match
		for l < len(needle) && s+l < len(ref) && ref[s+l] == needle[l] {
			l++
		}
		if l > bestL {
			bestS, bestL = s, l
			if bestL == len(needle) {
				break
			}
		}
	}
	return bestS, bestL
}

// FactorsSLM computes the (S, L, M) referential representation of input
// against the indexed reference with greedy leftmost-longest matching.
// It reproduces the paper's Table 4 examples.
func (ix *RefIndex) FactorsSLM(input []uint16) []EFactor {
	var out []EFactor
	refLen := len(ix.ref)
	i := 0
	for i < len(input) {
		s, l := ix.longestMatch(input[i:])
		if l == 0 {
			// Case B: symbol absent from the reference.
			out = append(out, EFactor{S: refLen, M: input[i], HasM: true, NotInRef: true})
			i++
			continue
		}
		i += l
		if i < len(input) {
			out = append(out, EFactor{S: s, L: l, M: input[i], HasM: true})
			i++
		} else {
			out = append(out, EFactor{S: s, L: l})
		}
	}
	return out
}

// FactorsSL computes the pivot representation of input against the indexed
// reference (Section 4.3).
func (ix *RefIndex) FactorsSL(input []uint16) []PivotFactor {
	var out []PivotFactor
	i := 0
	for i < len(input) {
		s, l := ix.longestMatch(input[i:])
		if l == 0 {
			out = append(out, PivotFactor{Omitted: true})
			i++
			continue
		}
		out = append(out, PivotFactor{S: s, L: l})
		i += l
	}
	return out
}

// FactorsSLM computes the (S, L, M) referential representation of input
// against ref.  Callers factoring several inputs against one reference
// should build a RefIndex once and use its method instead.
func FactorsSLM(input, ref []uint16) []EFactor {
	return NewRefIndex(ref).FactorsSLM(input)
}

// PivotFactor is one factor of the lighter (S, L) representation used for
// pivot-based similarity estimation (Section 4.3).  Omitted marks symbols
// absent from the pivot: the factor is not stored, but the count increases.
type PivotFactor struct {
	S, L    int
	Omitted bool
}

// FactorsSL computes the pivot representation of input against ref.
// Callers factoring several inputs against one reference should build a
// RefIndex once and use its method instead.
func FactorsSL(input, ref []uint16) []PivotFactor {
	return NewRefIndex(ref).FactorsSL(input)
}

// TFFactor is one factor of the time-flag bit-string representation: copy
// ref[S:S+L], then append M when HasM (the final factor may lack M).  The
// binary encoding spends 1 bit on M per the paper's cost model.
type TFFactor struct {
	S, L int
	M    bool
	HasM bool
}

// TFIndex is the two-symbol-alphabet analogue of RefIndex, built once per
// reference time-flag bit-string and reused across its non-references.
type TFIndex struct {
	ref       []bool
	first     [2]int32
	pairStart [5]int32
	pairPos   []int32
}

// NewTFIndex builds the position index of a stored time-flag bit-string.
func NewTFIndex(ref []bool) *TFIndex {
	ix := &TFIndex{ref: ref, first: [2]int32{-1, -1}}
	for i := len(ref) - 1; i >= 0; i-- {
		ix.first[b2i(ref[i])] = int32(i)
	}
	if len(ref) < 2 {
		return ix
	}
	for i := 0; i+1 < len(ref); i++ {
		ix.pairStart[b2i(ref[i])*2+b2i(ref[i+1])+1]++
	}
	for i := 1; i < len(ix.pairStart); i++ {
		ix.pairStart[i] += ix.pairStart[i-1]
	}
	ix.pairPos = make([]int32, len(ref)-1)
	var fill [4]int32
	copy(fill[:], ix.pairStart[:4])
	for i := 0; i+1 < len(ref); i++ {
		p := b2i(ref[i])*2 + b2i(ref[i+1])
		ix.pairPos[fill[p]] = int32(i)
		fill[p]++
	}
	return ix
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// longestMatch returns the leftmost longest match of a prefix of needle in
// the indexed bit-string, with the same semantics as RefIndex.longestMatch.
func (ix *TFIndex) longestMatch(needle []bool) (int, int) {
	if len(needle) == 0 {
		return 0, 0
	}
	f := ix.first[b2i(needle[0])]
	if f < 0 {
		return 0, 0
	}
	bestS, bestL := int(f), 1
	if len(needle) == 1 {
		return bestS, bestL
	}
	ref := ix.ref
	p := b2i(needle[0])*2 + b2i(needle[1])
	for _, s32 := range ix.pairPos[ix.pairStart[p]:ix.pairStart[p+1]] {
		s := int(s32)
		if s+bestL >= len(ref) {
			break
		}
		if ref[s+bestL] != needle[bestL] {
			continue
		}
		l := 2
		for l < len(needle) && s+l < len(ref) && ref[s+l] == needle[l] {
			l++
		}
		if l > bestL {
			bestS, bestL = s, l
			if bestL == len(needle) {
				break
			}
		}
	}
	return bestS, bestL
}

// FactorsTF computes the referential representation of a stored time-flag
// bit-string against the indexed reference bit-string.
func (ix *TFIndex) FactorsTF(input []bool) []TFFactor {
	var out []TFFactor
	i := 0
	for i < len(input) {
		s, l := ix.longestMatch(input[i:])
		i += l
		if i < len(input) {
			out = append(out, TFFactor{S: s, L: l, M: input[i], HasM: true})
			i++
		} else {
			out = append(out, TFFactor{S: s, L: l})
		}
	}
	return out
}

// FactorsTF computes the referential representation of a stored time-flag
// bit-string against the reference's stored bit-string.  Callers factoring
// several inputs against one reference should build a TFIndex once.
func FactorsTF(input, ref []bool) []TFFactor {
	return NewTFIndex(ref).FactorsTF(input)
}

// DFactor is one (pos, rd) factor of the relative-distance representation:
// positions where the non-reference differs from its reference.
type DFactor struct {
	Pos int
	RD  float64
}

// DiffD computes the D factors of input against ref.  Values are compared
// after PDDP quantization so that positions whose codes coincide are
// shared, preserving the error bound.
func DiffD(input, ref []float64, codec *pddp.Codec) []DFactor {
	var out []DFactor
	for i := range input {
		if codec.Quantize(input[i]) != codec.Quantize(ref[i]) {
			out = append(out, DFactor{Pos: i, RD: input[i]})
		}
	}
	return out
}

// diffDQuant is DiffD against an already-quantized reference, so a
// reference shared by many non-references is quantized once.
func diffDQuant(input, refQuant []float64, codec *pddp.Codec) []DFactor {
	var out []DFactor
	for i := range input {
		if codec.Quantize(input[i]) != refQuant[i] {
			out = append(out, DFactor{Pos: i, RD: input[i]})
		}
	}
	return out
}

// StoredTF strips the first and last bits of a full time-flag bit-string
// (both always 1; Section 4.1 omits them).
func StoredTF(full []bool) []bool {
	if len(full) <= 2 {
		return nil
	}
	return full[1 : len(full)-1]
}
