package occupancy

import "math/bits"

// Bitset is a word-parallel free-map: one bit per node (or per rank in a
// curve order), packed little-endian into []uint64 words. Callers decide the
// polarity; the allocators in internal/alloc and internal/binpack keep a set
// bit per FREE slot so candidate enumeration can skip busy regions 64 nodes
// per instruction with OnesCount64/TrailingZeros64 word scans.
//
// Pad bits past the length in the last word are always zero. Every mutator
// preserves that invariant, so run scans can never extend past the end and
// Count never over-counts.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an all-clear Bitset of n bits.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("occupancy: negative Bitset length")
	}
	return &Bitset{words: make([]uint64, (n+63)>>6), n: n}
}

// Words exposes the backing words read-only (callers must not mutate them;
// the slice is shared, not copied). Bit i of the set lives at
// Words()[i>>6] bit (i&63).
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("occupancy: Bitset index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("occupancy: Bitset index out of range")
	}
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports bit i.
func (b *Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("occupancy: Bitset index out of range")
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetAll sets every addressable bit, keeping pad bits clear.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the index of the first set bit at or after from, or -1 if
// none. from may be out of range; values past Len() report -1.
func (b *Bitset) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from >> 6
	w := b.words[wi] & (^uint64(0) << (uint(from) & 63))
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(b.words) {
			return -1
		}
		w = b.words[wi]
	}
}

// NextClear returns the index of the first clear bit at or after from,
// clamped to Len(): if every bit in [from, Len()) is set it returns Len().
// This asymmetry with NextSet makes the run-scan idiom
//
//	for i := 0; ; { j := b.NextSet(i); if j < 0 { break }; k := b.NextClear(j); ... ; i = k }
//
// terminate cleanly at the end of the set.
func (b *Bitset) NextClear(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return b.n
	}
	wi := from >> 6
	w := ^b.words[wi] & (^uint64(0) << (uint(from) & 63))
	for {
		if w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i > b.n {
				return b.n
			}
			return i
		}
		wi++
		if wi >= len(b.words) {
			return b.n
		}
		w = ^b.words[wi]
	}
}

// AndShiftRight folds v &= v >> s in place across word boundaries, reading
// bits shifted in from higher words and zero past the top. It is the word-
// parallel doubling step for run detection: if bit x of v means "bits
// x..x+d-1 are all set", then after AndShiftRight(v, s) with s <= d it means
// "bits x..x+d+s-1 are all set".
func AndShiftRight(v []uint64, s int) {
	if s <= 0 {
		return
	}
	o, r := s>>6, uint(s)&63
	for i := range v {
		var w uint64
		if i+o < len(v) {
			w = v[i+o] >> r
			if r != 0 && i+o+1 < len(v) {
				w |= v[i+o+1] << (64 - r)
			}
		}
		v[i] &= w
	}
}

// RunMask writes into dst the run-start mask of src for window w: bit x of
// dst is set iff bits x..x+w-1 of src are all set (reading zero past the
// top). dst and src must have equal length; dst may alias src only if they
// are the same slice. Cost is O(len(src) * log w) via doubling.
func RunMask(dst, src []uint64, w int) {
	if len(dst) != len(src) {
		panic("occupancy: RunMask length mismatch")
	}
	if w <= 0 {
		panic("occupancy: RunMask window must be positive")
	}
	copy(dst, src)
	// Invariant: bit x of dst == "bits x..x+d-1 of src all set".
	for d := 1; d < w; {
		s := d
		if s > w-d {
			s = w - d
		}
		AndShiftRight(dst, s)
		d += s
	}
}
