// Package bitree provides Fenwick (binary indexed) trees used as the
// query substrate for longest-increasing-subsequence computations and the
// match-point dynamic programs in the ulam package.
//
// Two flavors are provided: a prefix-minimum tree and a prefix-maximum
// tree. Both are fixed-size and use 1-based internal indexing while
// exposing a 0-based API.
package bitree

import "math"

// Inf is the identity element for MinTree queries.
const Inf = math.MaxInt64 / 4

// MinTree maintains an array of int64 values supporting point updates that
// only decrease values and prefix-minimum queries. The zero value is not
// usable; construct with NewMin.
type MinTree struct {
	n    int
	tree []int64
}

// NewMin returns a MinTree over n slots, all initialized to Inf.
func NewMin(n int) *MinTree {
	t := &MinTree{n: n, tree: make([]int64, n+1)}
	for i := range t.tree {
		t.tree[i] = Inf
	}
	return t
}

// Len returns the number of slots.
func (t *MinTree) Len() int { return t.n }

// Update lowers the value at index i (0-based) to min(current, v).
func (t *MinTree) Update(i int, v int64) {
	if i < 0 || i >= t.n {
		panic("bitree: MinTree.Update index out of range")
	}
	for i++; i <= t.n; i += i & (-i) {
		if v < t.tree[i] {
			t.tree[i] = v
		}
	}
}

// PrefixMin returns the minimum over indices [0, i] (0-based, inclusive).
// For i < 0 it returns Inf.
func (t *MinTree) PrefixMin(i int) int64 {
	if i >= t.n {
		i = t.n - 1
	}
	best := int64(Inf)
	for i++; i > 0; i -= i & (-i) {
		if t.tree[i] < best {
			best = t.tree[i]
		}
	}
	return best
}

// Reset restores all slots to Inf, allowing reuse without reallocation.
func (t *MinTree) Reset() {
	for i := range t.tree {
		t.tree[i] = Inf
	}
}

// MaxTree maintains an array of int64 values supporting point updates that
// only increase values and prefix-maximum queries. It is the mirror of
// MinTree and is used by LIS-style dynamic programs.
type MaxTree struct {
	n    int
	tree []int64
}

// NegInf is the identity element for MaxTree queries.
const NegInf = -Inf

// NewMax returns a MaxTree over n slots, all initialized to NegInf.
func NewMax(n int) *MaxTree {
	t := &MaxTree{n: n, tree: make([]int64, n+1)}
	for i := range t.tree {
		t.tree[i] = NegInf
	}
	return t
}

// Len returns the number of slots.
func (t *MaxTree) Len() int { return t.n }

// Update raises the value at index i (0-based) to max(current, v).
func (t *MaxTree) Update(i int, v int64) {
	if i < 0 || i >= t.n {
		panic("bitree: MaxTree.Update index out of range")
	}
	for i++; i <= t.n; i += i & (-i) {
		if v > t.tree[i] {
			t.tree[i] = v
		}
	}
}

// PrefixMax returns the maximum over indices [0, i] (0-based, inclusive).
// For i < 0 it returns NegInf.
func (t *MaxTree) PrefixMax(i int) int64 {
	if i >= t.n {
		i = t.n - 1
	}
	best := int64(NegInf)
	for i++; i > 0; i -= i & (-i) {
		if t.tree[i] > best {
			best = t.tree[i]
		}
	}
	return best
}
