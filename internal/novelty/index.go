package novelty

import "math/bits"

// shingleIndex maps a shingle hash to its postings in one flat
// open-addressing table with linear probing. A Go map spends two cache
// misses per lookup (control word, then slot) and most lookups here miss
// (a typical post's shingles are new); one contiguous slot array costs
// one miss per lookup and under half the memory (65 MB against ~145 MB
// for the 3.8M distinct shingles of a 38k-post corpus).
//
// A slot's ref encodes the postings: 0 marks an empty slot, ref > 0 is a
// shingle seen in exactly one document (ref-1), and ref < 0 points at a
// posting list lists[-ref-1] of a repeated shingle.
type shingleIndex struct {
	slots []indexSlot
	n     int // occupied slots
}

// indexSlot is 12 bytes: the key is split into two words so the slot
// needs only 4-byte alignment.
type indexSlot struct {
	lo, hi uint32
	ref    int32
}

// overLoaded reports whether n keys in the given number of slots pass the
// 3/4 load bound past which the table grows.
func overLoaded(n, slots int) bool { return 4*n > 3*slots }

// find returns g's slot, or the empty slot where g belongs. The table
// must have a free slot.
func (x *shingleIndex) find(g uint64) *indexSlot {
	lo, hi := uint32(g), uint32(g>>32)
	// Shingle hashes are FNV-1a values; a Fibonacci multiply spreads their
	// better-mixed high bits, and the multiply-high maps the result onto
	// any table size without a modulo.
	i, _ := bits.Mul64(g*0x9E3779B97F4A7C15, uint64(len(x.slots)))
	for {
		s := &x.slots[i]
		if s.ref == 0 || s.lo == lo && s.hi == hi {
			return s
		}
		if i++; i == uint64(len(x.slots)) {
			i = 0
		}
	}
}

// reserve makes room for extra more keys without passing the load bound,
// rehashing into a larger table if needed. Growth at least doubles, so a
// stream of small reservations costs amortized O(1) per key.
func (x *shingleIndex) reserve(extra int) {
	need := x.n + extra
	if !overLoaded(need, len(x.slots)) {
		return
	}
	size := max(2*len(x.slots), need*4/3+1, 64)
	old := x.slots
	x.slots = make([]indexSlot, size)
	for _, s := range old {
		if s.ref != 0 {
			*x.find(uint64(s.hi)<<32 | uint64(s.lo)) = s
		}
	}
}
