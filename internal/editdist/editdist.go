// Package editdist implements exact sequential edit-distance kernels: the
// classic dynamic program, a banded (Ukkonen) variant with threshold
// decision, the Myers bit-parallel algorithm, and Hirschberg linear-space
// alignment recovery.
//
// These are the substrates the paper's MPC algorithms compute on individual
// machines (the "naive DP algorithm" of Algorithms 5 and 7) and the exact
// oracles every approximation in this repository is verified against.
//
// All operations (insert, delete, substitute) cost 1, matching the paper.
package editdist

import "mpcdist/internal/stats"

// Distance returns the exact edit distance between a and b using the
// classic dynamic program with two rows of memory, O(|a|·|b|) time and
// O(min(|a|,|b|)) space. ops, which may be nil, is charged one unit per DP
// cell evaluated.
func Distance[T comparable](a, b []T, ops *stats.Ops) int {
	// Keep the inner dimension the smaller one.
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	if m == 0 {
		return len(a)
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			if ai == b[j-1] {
				cur[j] = prev[j-1]
			} else {
				c := prev[j-1] // substitute
				if prev[j] < c {
					c = prev[j] // delete from a
				}
				if cur[j-1] < c {
					c = cur[j-1] // insert into a
				}
				cur[j] = c + 1
			}
		}
		prev, cur = cur, prev
	}
	ops.Add(int64(len(a)) * int64(m))
	return prev[m]
}

// Bytes is shorthand for Distance over byte slices.
func Bytes(a, b []byte, ops *stats.Ops) int { return Distance(a, b, ops) }

// Strings is shorthand for Distance over strings.
func Strings(a, b string) int { return Distance([]byte(a), []byte(b), nil) }

// Banded computes the edit distance between a and b restricted to the band
// of diagonals within k of the main diagonal (Ukkonen's algorithm). It
// returns (d, true) when the true distance d is at most k, and (k+1, false)
// when the distance exceeds k. Time O((2k+1)·min(|a|,|b|) + k).
//
// A negative k reports (0, true) only for equal inputs, consistent with
// "distance at most k" being unsatisfiable.
func Banded[T comparable](a, b []T, k int, ops *stats.Ops) (int, bool) {
	if k < 0 {
		return 0, false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	n, m := len(a), len(b)
	if n-m > k {
		return k + 1, false
	}
	const inf = 1 << 30
	// Row i covers columns j in [i-k, i+k] intersected with [0, m].
	width := 2*k + 1
	prev := make([]int, width+2)
	cur := make([]int, width+2)
	// idx maps column j on row i to slot j-(i-k)+1; slots 0 and width+1 are
	// sentinels holding inf.
	for s := range prev {
		prev[s] = inf
	}
	for j := 0; j <= k && j <= m; j++ {
		prev[j+1] = j // row 0: D[0][j] = j at slot j-(0-k)+1 = j+k+1... see note
	}
	// Note: for row 0 the band starts at j = -k; slot(j) = j+k+1. Rewrite:
	for s := range prev {
		prev[s] = inf
	}
	for j := 0; j <= m && j <= k; j++ {
		prev[j+k+1] = j
	}
	var cells int64
	for i := 1; i <= n; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		hi := i + k
		if hi > m {
			hi = m
		}
		for s := range cur {
			cur[s] = inf
		}
		if lo > hi {
			return k + 1, false
		}
		for j := lo; j <= hi; j++ {
			s := j - (i - k) + 1 // slot on current row
			ps := j - (i - 1 - k) + 1
			if j == 0 {
				cur[s] = i
				continue
			}
			var best int
			if a[i-1] == b[j-1] {
				best = prev[ps-1]
			} else {
				best = prev[ps-1] // substitute
				if prev[ps] < best {
					best = prev[ps] // delete
				}
				if cur[s-1] < best {
					best = cur[s-1] // insert
				}
				if best < inf {
					best++
				}
			}
			cur[s] = best
		}
		cells += int64(hi - lo + 1)
		prev, cur = cur, prev
	}
	ops.Add(cells)
	d := prev[m-(n-k)+1]
	if d > k {
		return k + 1, false
	}
	return d, true
}

// BoundedDistance returns min(ed(a, b), bound+1), spending only
// O(bound·min(|a|,|b|)) time via exponential threshold doubling. It is the
// preferred exact kernel when a cap is known (e.g. distances above 2·tau
// are irrelevant).
func BoundedDistance[T comparable](a, b []T, bound int, ops *stats.Ops) int {
	if bound < 0 {
		bound = 0
	}
	k := 1
	d0 := len(a) - len(b)
	if d0 < 0 {
		d0 = -d0
	}
	if k < d0 {
		k = d0
	}
	for {
		if k > bound {
			k = bound
		}
		if d, ok := Banded(a, b, k, ops); ok {
			return d
		}
		if k >= bound {
			return bound + 1
		}
		k *= 2
	}
}
