package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers packed
// 64 per word. It is the row representation of the reachability closure:
// word-level union makes "merge the successor's reachable set" a handful
// of OR instructions per 64 nodes instead of a per-node loop.
//
// The zero value is an empty set of capacity 0; size with NewBitset.
// Methods never allocate, so rows can be reused across queries.
type Bitset []uint64

// bitsetWords returns the number of words needed for n bits.
func bitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns an empty bitset with capacity for bits 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, bitsetWords(n)) }

// Set adds i to the set. i must be within capacity.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Test reports whether i is in the set. i must be within capacity.
func (b Bitset) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// UnionWith ORs o into b word by word. The two must have equal capacity.
func (b Bitset) UnionWith(o Bitset) {
	for k, w := range o {
		b[k] |= w
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes every bit, keeping the capacity.
func (b Bitset) Clear() {
	for k := range b {
		b[k] = 0
	}
}
