// Package bitree provides the module's Fenwick (binary indexed) tree: a
// prefix-minimum tree that records which id set each minimum. It is the
// query substrate of the match-point dynamic programs in the ulam package
// (the CDQ merge and Pricer.WindowDists) and of the Fenwick chain DPs in
// the chain package; a prefix maximum is a prefix minimum over negated
// values.
//
// The tree is fixed-size and uses 1-based internal indexing while
// exposing a 0-based API.
package bitree

import "math"

// Inf is the identity element for MinTree queries, and the kernels' one
// infinity: a DP value that no path has reached yet.
const Inf = math.MaxInt64 / 4

// MinTree maintains an array of (value, id) pairs supporting point updates
// that only decrease values and prefix-minimum queries that report the id
// of the update that set the minimum. The zero value is not usable;
// construct with NewMin.
type MinTree struct {
	val []int64
	id  []int32
}

// NewMin returns a MinTree over n slots, all initialized to (Inf, -1).
func NewMin(n int) *MinTree {
	t := &MinTree{val: make([]int64, n+1), id: make([]int32, n+1)}
	for i := range t.val {
		t.val[i] = Inf
		t.id[i] = -1
	}
	return t
}

// Update lowers the value at index i (0-based) to min(current, v); when v
// is strictly lower, id becomes the id reported with it. Ties keep the
// earlier update's id.
func (t *MinTree) Update(i int, v int64, id int32) {
	n := len(t.val) - 1
	if i < 0 || i >= n {
		panic("bitree: MinTree.Update index out of range")
	}
	for i++; i <= n; i += i & (-i) {
		if v < t.val[i] {
			t.val[i] = v
			t.id[i] = id
		}
	}
}

// PrefixMin returns the minimum over indices [0, i] (0-based, inclusive)
// and the id that set it. For i < 0 it returns (Inf, -1).
func (t *MinTree) PrefixMin(i int) (int64, int32) {
	if n := len(t.val) - 1; i >= n {
		i = n - 1
	}
	best, id := int64(Inf), int32(-1)
	for i++; i > 0; i -= i & (-i) {
		if t.val[i] < best {
			best, id = t.val[i], t.id[i]
		}
	}
	return best, id
}

// Clear undoes the updates at index i: it resets every node on i's update
// path to (Inf, -1), which may also drop other indices' values that share
// those nodes. The tree is restored to a new tree's state only once every
// index updated since it was new has been cleared; callers that reuse a
// tree clear each index they updated, at the cost of the updates.
func (t *MinTree) Clear(i int) {
	n := len(t.val) - 1
	if i < 0 || i >= n {
		panic("bitree: MinTree.Clear index out of range")
	}
	for i++; i <= n; i += i & (-i) {
		t.val[i] = Inf
		t.id[i] = -1
	}
}
