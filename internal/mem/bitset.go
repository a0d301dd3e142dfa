package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitset is a fixed-capacity set of small non-negative integers, used
// for page copysets (which nodes hold a copy of a page). The zero
// value is an empty set that grows on Add.
type Bitset struct {
	words []uint64
}

func (b *Bitset) grow(i int) {
	for i/64 >= len(b.words) {
		b.words = append(b.words, 0)
	}
}

// Add inserts i.
func (b *Bitset) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("mem: Bitset.Add(%d): negative element", i))
	}
	b.grow(i)
	b.words[i/64] |= 1 << (i % 64)
}

// Remove deletes i; removing an absent element is a no-op.
func (b *Bitset) Remove(i int) {
	if i < 0 || i/64 >= len(b.words) {
		return
	}
	b.words[i/64] &^= 1 << (i % 64)
}

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool {
	if i < 0 || i/64 >= len(b.words) {
		return false
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Clear empties the set, keeping capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach calls fn for every element in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &^= 1 << bit
		}
	}
}

// Except returns the elements other than x and y in ascending order: of
// a copyset, the nodes a transaction must message — everyone but its
// requester and the node running it.
func (b *Bitset) Except(x, y int) []int {
	var out []int
	b.ForEach(func(i int) {
		if i != x && i != y {
			out = append(out, i)
		}
	})
	return out
}

// String renders the set as "{a b c}".
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprint(&sb, i)
	})
	sb.WriteByte('}')
	return sb.String()
}
