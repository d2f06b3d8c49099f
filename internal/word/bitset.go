package word

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers packed into
// machine words. The simulator uses it for the per-cell process sets on its
// hot path (cache copies, accessors, spin watchers): membership tests and
// updates are single word operations, clearing is a short memclr, and
// iteration is ascending by construction — which removes both the per-cell
// []bool allocations and the nondeterministic map iteration the previous
// representation needed to sort away.
type Bitset []Word

// bitsetShift selects the word index: i >> bitsetShift == i / 64.
const bitsetShift = 6

// NewBitset returns a set with capacity for elements 0..n-1.
func NewBitset(n int) Bitset {
	if n <= 0 {
		return nil
	}
	return make(Bitset, (n+MaxBits-1)/MaxBits)
}

// Test reports whether i is in the set.
func (b Bitset) Test(i int) bool {
	return b[i>>bitsetShift]&(1<<(uint(i)%MaxBits)) != 0
}

// Set adds i to the set.
func (b Bitset) Set(i int) {
	b[i>>bitsetShift] |= 1 << (uint(i) % MaxBits)
}

// Clear removes i from the set.
func (b Bitset) Clear(i int) {
	b[i>>bitsetShift] &^= 1 << (uint(i) % MaxBits)
}

// ClearAll empties the set, keeping its capacity.
func (b Bitset) ClearAll() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every member in ascending order. fn must not mutate
// the set (use AppendTo to snapshot first when the loop body removes
// members).
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		base := wi << bitsetShift
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendTo appends the members to dst in ascending order and returns the
// extended slice; pass a reused scratch buffer (dst[:0]) to avoid
// allocation.
func (b Bitset) AppendTo(dst []int) []int {
	for wi, w := range b {
		base := wi << bitsetShift
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
