// Broadword rank bitvectors for the UTCI sidecar (FORMAT.md §5.2).
//
// A bitvec is a read-only view over sidecar bytes: 64-bit little-endian
// words plus one 32-bit cumulative-popcount superblock per 8 words (512
// bits), so membership and rank answer in O(1) straight off a memory
// mapping without materializing anything.  The superblocks are verified
// against the words at parse time, which bounds every later rank result
// by the declared popcount — downstream bucket-slot lookups stay in range
// even for hostile inputs.
package stiu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// superWords is the rank superblock geometry: one cumulative u32 per 8
// words = 512 bits.
const superWords = 8

// bitvec is a rank-capable bitvector view.  words and ranks alias the
// sidecar buffer (possibly a read-only mapping); the struct itself is
// cheap to copy.
type bitvec struct {
	words []byte // nwords × u64, little-endian
	ranks []byte // ⌈nwords/8⌉ × u32: ones strictly before word s·8
	nbits int
	npop  int
}

// appendBitvec encodes a bitvector of nbits universe bits whose set
// positions are vals (ascending, distinct, all in [0, nbits)).
// Layout: uvarint nbits | uvarint npop | words | rank superblocks.
func appendBitvec(buf []byte, nbits int, vals []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(nbits))
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	nwords := (nbits + 63) / 64
	start := len(buf)
	buf = append(buf, make([]byte, 8*nwords)...)
	for _, v := range vals {
		buf[start+int(v>>3)] |= 1 << (v & 7) // bit v of the little-endian words
	}
	k := 0
	for s := 0; s*superWords < nwords; s++ {
		for k < len(vals) && int(vals[k]) < s*superWords*64 {
			k++
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	return buf
}

// bitvec parses a bitvector and verifies it describes exactly wantBits
// universe bits with internally consistent rank superblocks; any
// inconsistency (wrong popcount, stale superblock, set padding bits) is
// an error rather than a latent out-of-range rank.
func (r *sidecarReader) bitvec(wantBits int) (bitvec, error) {
	nb, err := r.uvarint()
	if err != nil {
		return bitvec{}, err
	}
	if nb != uint64(wantBits) {
		return bitvec{}, fmt.Errorf("bitvector universe %d, want %d", nb, wantBits)
	}
	np, err := r.uvarint()
	if err != nil {
		return bitvec{}, err
	}
	if np > nb {
		return bitvec{}, fmt.Errorf("bitvector popcount %d exceeds universe %d", np, nb)
	}
	nwords := (wantBits + 63) / 64
	words, err := r.take(nwords * 8)
	if err != nil {
		return bitvec{}, err
	}
	nSuper := (nwords + superWords - 1) / superWords
	ranks, err := r.take(nSuper * 4)
	if err != nil {
		return bitvec{}, err
	}
	cum := 0
	for w := 0; w < nwords; w++ {
		if w%superWords == 0 {
			if got := binary.LittleEndian.Uint32(ranks[w/superWords*4:]); int(got) != cum {
				return bitvec{}, fmt.Errorf("rank superblock %d is %d, want %d", w/superWords, got, cum)
			}
		}
		wv := binary.LittleEndian.Uint64(words[8*w:])
		if w == nwords-1 && wantBits%64 != 0 && wv>>(uint(wantBits)%64) != 0 {
			return bitvec{}, fmt.Errorf("bitvector padding bits set past %d", wantBits)
		}
		cum += bits.OnesCount64(wv)
	}
	if cum != int(np) {
		return bitvec{}, fmt.Errorf("bitvector popcount %d, declared %d", cum, np)
	}
	return bitvec{words: words, ranks: ranks, nbits: wantBits, npop: int(np)}, nil
}

// word returns word w of the bitvector.  Callers bound w by nbits.
func (bv *bitvec) word(w int) uint64 {
	return binary.LittleEndian.Uint64(bv.words[8*w:])
}

// get reports bit i.  Callers bound i by nbits.
func (bv *bitvec) get(i int) bool {
	w := binary.LittleEndian.Uint64(bv.words[(i>>6)*8:])
	return w>>(uint(i)&63)&1 != 0
}

// rank1 returns the number of set bits strictly before position i: the
// superblock's cumulative count plus at most 7 word popcounts plus one
// masked partial word.  Parse-time verification guarantees the result is
// at most npop.
func (bv *bitvec) rank1(i int) int {
	s := i / (superWords * 64)
	r := int(binary.LittleEndian.Uint32(bv.ranks[s*4:]))
	for w := s * superWords; w < i>>6; w++ {
		r += bits.OnesCount64(binary.LittleEndian.Uint64(bv.words[8*w:]))
	}
	if i&63 != 0 {
		w := binary.LittleEndian.Uint64(bv.words[(i>>6)*8:])
		r += bits.OnesCount64(w & (1<<(uint(i)&63) - 1))
	}
	return r
}

// forEach calls fn(k, i) for every set bit i in ascending order, where k
// is the bit's rank (its bucket slot in the layout).
func (bv *bitvec) forEach(fn func(k, i int)) {
	k := 0
	for w := 0; w*64 < bv.nbits; w++ {
		v := binary.LittleEndian.Uint64(bv.words[8*w:])
		for v != 0 {
			fn(k, w*64+bits.TrailingZeros64(v))
			k++
			v &= v - 1
		}
	}
}

// sizeBytes is the succinct footprint of the view (words + superblocks).
func (bv *bitvec) sizeBytes() int { return len(bv.words) + len(bv.ranks) }
