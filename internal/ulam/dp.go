package ulam

import (
	"cmp"
	"slices"

	"mpcdist/internal/bitree"
	"mpcdist/internal/stats"
)

// This file holds the match-point dynamic program shared by Exact and
// Local.
//
// Points are processed in increasing i. A transition l -> k is valid when
// i_l < i_k and j_l < j_k and costs max(i_k-i_l-1, j_k-j_l-1). Splitting on
// which side realizes the max, with diag = i - j:
//
//	case A (diag_l <= diag_k): cost = i_k - i_l - 1, and the conditions
//	  reduce to { j_l < j_k, diag_l <= diag_k } (these imply i_l < i_k);
//	case B (diag_l >  diag_k): cost = j_k - j_l - 1, and the conditions
//	  reduce to { i_l < i_k, diag_l >  diag_k } (these imply j_l < j_k).
//
// The boundary costs are folded into two virtual points. For the global
// distance, start (-1,-1) and end (|a|,|b|) with their natural diagonals
// make case A/B reproduce max(i_k, j_k) and max(|a|-1-i, |b|-1-j)
// respectively. For the local variant, giving the start diagonal -inf and
// the end diagonal +inf forces case A on both boundaries, charging only the
// block side (i), which is exactly lulam's boundary cost.
//
// runDP computes d for every point with a CDQ divide and conquer over the
// i-order plus two Fenwick trees (bitree.MinTree) keyed by compressed
// diagonal, in O(m log^2 m). exactQuadratic is the O(m^2) reference. A
// point no path has reached holds d = bitree.Inf.

// QuadCutoff is the point count (768) at or below which runDP uses the
// quadratic DP in place of the CDQ machinery: it does more elementary
// operations but is faster in wall-clock terms on small inputs (see
// BenchmarkDPCrossover). Experiments that measure the *asymptotic
// algorithm's* operation counts (the paper's Õ(n) total-work claim) set it
// to 0 to force the O(m log² m) path, as every fit run of the Table 1 spec
// list does (harness.Sweep). Not safe to change while computations run.
var QuadCutoff = 768

// ranks are the distinct diagonals of a point set, ascending: a point's
// own diagonal ranks in [0, len(ranks)).
type ranks []int64

// of returns the number of distinct diagonals below v.
func (rk ranks) of(v int64) int {
	r, _ := slices.BinarySearch(rk, v)
	return r
}

// diagRanks compresses the diagonals of pts into buf, which it reuses.
func diagRanks(buf []int64, pts []point) ranks {
	buf = slices.Grow(buf[:0], len(pts))
	for k := range pts {
		buf = append(buf, pts[k].diag)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// byJ returns the indices lo..hi-1 of pts ordered by increasing j, in
// idx, which it reuses.
func byJ(idx []int32, pts []point, lo, hi int) []int32 {
	idx = slices.Grow(idx[:0], hi-lo)
	for k := lo; k < hi; k++ {
		idx = append(idx, int32(k))
	}
	slices.SortFunc(idx, func(x, y int32) int { return cmp.Compare(pts[x].j, pts[y].j) })
	return idx
}

// runDP fills in d and parent for every point. pts must be sorted by
// increasing i with pts[0] the virtual start (d = 0); all other d values
// must be bitree.Inf. A point's d depends only on the points before it, so
// the last point (usually the virtual end) is just one more point.
func runDP(pts []point, ops *stats.Ops) {
	n := len(pts)
	if n <= 1 {
		return
	}
	if n <= QuadCutoff {
		exactQuadratic(pts, ops)
		return
	}
	diags := diagRanks(nil, pts)
	nd := len(diags)
	bitA := bitree.NewMin(nd) // prefix over diag rank: min d - i  (case A)
	bitB := bitree.NewMin(nd) // prefix over reversed rank: min d - j (case B)

	var left, right []int32 // each merge's halves by j
	merge := func(lo, mid, hi int) {
		left = byJ(left, pts, lo, mid)
		right = byJ(right, pts, mid, hi)
		li := 0
		var work int64
		for _, rk := range right {
			k := &pts[rk]
			for ; li < len(left) && pts[left[li]].j < k.j; li++ {
				l := &pts[left[li]]
				if l.d < bitree.Inf {
					r := diags.of(l.diag)
					bitA.Update(r, l.d-int64(l.i), left[li])
					bitB.Update(nd-1-r, l.d-int64(l.j), left[li])
				}
				work++
			}
			rκ := diags.of(k.diag)
			if v, id := bitA.PrefixMin(rκ); v < bitree.Inf {
				if cand := v + int64(k.i) - 1; cand < k.d {
					k.d = cand
					k.parent = id
				}
			}
			// case B: diag_l > diag_k  <=>  reversed rank < nd-1-rκ.
			if v, id := bitB.PrefixMin(nd - 2 - rκ); v < bitree.Inf {
				if cand := v + int64(k.j) - 1; cand < k.d {
					k.d = cand
					k.parent = id
				}
			}
			work += 2
		}
		// Undo this merge's updates, so the next merge starts from empty
		// trees (the admitted points are a superset of the updated ones).
		for _, l := range left[:li] {
			r := diags.of(pts[l].diag)
			bitA.Clear(r)
			bitB.Clear(nd - 1 - r)
		}
		ops.Add(work)
	}

	var solve func(lo, hi int)
	solve = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		mid := (lo + hi) / 2
		solve(lo, mid)
		merge(lo, mid, hi)
		solve(mid, hi)
	}
	solve(0, n)
}

// exactQuadratic is the transparent O(m^2) reference DP used by tests and
// by small instances. It fills the same fields as runDP.
func exactQuadratic(pts []point, ops *stats.Ops) {
	var work int64
	for k := 1; k < len(pts); k++ {
		pk := &pts[k]
		for l := 0; l < k; l++ {
			pl := &pts[l]
			if pl.d >= bitree.Inf || pl.i >= pk.i || pl.j >= pk.j {
				continue
			}
			var gap int64
			if pl.diag <= pk.diag {
				gap = int64(pk.i - pl.i - 1)
			} else {
				gap = int64(pk.j - pl.j - 1)
			}
			if cand := pl.d + gap; cand < pk.d {
				pk.d = cand
				pk.parent = int32(l)
			}
		}
		work += int64(k)
	}
	ops.Add(work)
}

// ExactQuadratic computes the Ulam distance with the quadratic reference
// DP. Exported for tests and ablation benchmarks.
func ExactQuadratic(a, b []int, ops *stats.Ops) int {
	pts := buildPoints(a, b, false)
	exactQuadratic(pts, ops)
	return int(pts[len(pts)-1].d)
}

// LocalQuadratic computes the local Ulam distance with the quadratic
// reference DP. Exported for tests and ablation benchmarks.
func LocalQuadratic(block, sbar []int, ops *stats.Ops) (int, Window) {
	pts := buildPoints(block, sbar, true)
	exactQuadratic(pts, ops)
	return localWindow(pts, len(block), len(sbar))
}
