package editdist

import (
	"encoding/binary"
	"math/bits"

	"mpcdist/internal/stats"
)

// DiagonalTransition computes the exact edit distance with the
// Landau-Myers/Ukkonen diagonal-transition algorithm: O(n + m + d²)
// diagonal steps where d is the distance. It is the kernel of choice when
// strings are huge but similar (the paper's motivating genome regime).
//
// Each step slides along its diagonal with a direct longest-common-
// extension scan (lce), so the result is exact. The furthest-reaching row
// on a diagonal only moves forward, so no scan compares a cell an earlier
// one compared: the scans read at most (2d + 1)·min(n, m) bytes in all,
// a bound periodic strings approach. Where diagonals off the alignment
// mismatch within a few characters, as on random strings with planted
// edits, they read O(n + m + d²).
func DiagonalTransition(a, b []byte, ops *stats.Ops) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return n + m
	}

	// f[k] = furthest row i on diagonal k = j - i reachable with e edits.
	// Diagonals are offset by n so indices stay nonnegative.
	const neg = -1 << 30
	kmin, kmax := -n, m
	size := kmax - kmin + 3
	prev := make([]int, size)
	cur := make([]int, size)
	for i := range prev {
		prev[i] = neg
		cur[i] = neg
	}
	idx := func(k int) int { return k - kmin + 1 }

	target := m - n // diagonal of the bottom-right corner
	var work int64
	// e = 0: slide along the main diagonal.
	i0 := lce(a, b)
	prev[idx(0)] = i0
	if target == 0 && i0 >= n {
		ops.Add(1)
		return 0
	}
	// The band [lo, hi] only grows with e, and step e writes every
	// diagonal in it, so neither array needs a reset between steps: an
	// entry outside the band still holds its initial neg.
	for e := 1; e <= n+m; e++ {
		lo := -e
		if lo < -n {
			lo = -n
		}
		hi := e
		if hi > m {
			hi = m
		}
		for k := lo; k <= hi; k++ {
			i := prev[idx(k)] + 1 // substitution
			if v := prev[idx(k-1)]; v > i {
				i = v // insertion into a (j advances, i does not)
			}
			if v := prev[idx(k+1)] + 1; v > i {
				i = v // deletion from a
			}
			if i < 0 {
				if k >= 0 && e >= k {
					i = 0 // can always start on diagonal k >= 0 after k insertions
				} else {
					cur[idx(k)] = neg
					continue
				}
			}
			if i > n {
				i = n
			}
			if i+k > m {
				cur[idx(k)] = neg
				continue
			}
			i += lce(a[i:], b[i+k:])
			cur[idx(k)] = i
			work++
			if k == target && i >= n {
				ops.Add(work + int64(n)/8)
				return e
			}
		}
		prev, cur = cur, prev
	}
	ops.Add(work)
	return n + m // unreachable
}

// lce returns the length of the longest common prefix of a and b. It
// compares eight bytes at a time, where the first differing byte is the
// lowest set byte of the two little-endian words' XOR, then finishes byte
// by byte.
func lce(a, b []byte) int {
	n := min(len(a), len(b))
	k := 0
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(a[k:]) ^ binary.LittleEndian.Uint64(b[k:]); x != 0 {
			return k + bits.TrailingZeros64(x)/8
		}
	}
	for k < n && a[k] == b[k] {
		k++
	}
	return k
}
