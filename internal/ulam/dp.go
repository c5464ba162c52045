package ulam

import (
	"slices"

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
// i-order plus two Fenwick trees keyed by compressed diagonal, in
// O(m log^2 m). exactQuadratic is the O(m^2) reference.

const costInf = int64(1) << 60

// minBIT is a Fenwick tree over diagonal ranks storing (value, point index)
// pairs with prefix-minimum queries and touched-slot reset.
type minBIT struct {
	n       int
	val     []int64
	idx     []int32
	touched []int
}

func newMinBIT(n int) *minBIT {
	b := &minBIT{n: n, val: make([]int64, n+1), idx: make([]int32, n+1)}
	for i := range b.val {
		b.val[i] = costInf
		b.idx[i] = -1
	}
	return b
}

func (b *minBIT) update(i int, v int64, id int32) {
	for i++; i <= b.n; i += i & (-i) {
		if b.val[i] == costInf {
			b.touched = append(b.touched, i)
		}
		if v < b.val[i] {
			b.val[i] = v
			b.idx[i] = id
		}
	}
}

func (b *minBIT) prefixMin(i int) (int64, int32) {
	best, id := costInf, int32(-1)
	if i >= b.n {
		i = b.n - 1
	}
	for i++; i > 0; i -= i & (-i) {
		if b.val[i] < best {
			best, id = b.val[i], b.idx[i]
		}
	}
	return best, id
}

func (b *minBIT) reset() {
	for _, i := range b.touched {
		b.val[i] = costInf
		b.idx[i] = -1
	}
	b.touched = b.touched[:0]
}

// QuadCutoff is the point count (768) at or below which runDP uses the
// quadratic DP in place of the CDQ machinery: it does more elementary
// operations but is faster in wall-clock terms on small inputs (see
// BenchmarkDPCrossover). Experiments that measure the *asymptotic
// algorithm's* operation counts (the paper's Õ(n) total-work claim) set
// it to 0 to force the O(m log² m) path; see harness.UlamScaling. Not
// safe to change while computations are in flight.
var QuadCutoff = 768

// diagRanks compresses the diagonals of pts: rank(v) is the number of
// distinct diagonals below v, so a point's own diagonal ranks in [0, nd).
func diagRanks(pts []point) (rank func(v int64) int, nd int) {
	uniq := make([]int64, len(pts))
	for k := range pts {
		uniq[k] = pts[k].diag
	}
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	return func(v int64) int {
		r, _ := slices.BinarySearch(uniq, v)
		return r
	}, len(uniq)
}

// runDP fills in d and parent for every point. pts must be sorted by
// increasing i with pts[0] the virtual start (d = 0); all other d values
// must be costInf. A point's d depends only on the points before it, so
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
	rank, nd := diagRanks(pts)
	bitA := newMinBIT(nd) // prefix over diag rank: min d - i  (case A)
	bitB := newMinBIT(nd) // prefix over reversed rank: min d - j (case B)

	var merge func(lo, mid, hi int)
	merge = func(lo, mid, hi int) {
		left := sortByJ(pts, lo, mid)
		right := sortByJ(pts, mid, hi)
		li := 0
		var work int64
		for _, rk := range right {
			k := &pts[rk]
			for li < len(left) && pts[left[li]].j < k.j {
				l := &pts[left[li]]
				if l.d < costInf {
					r := rank(l.diag)
					bitA.update(r, l.d-int64(l.i), int32(left[li]))
					bitB.update(nd-1-r, l.d-int64(l.j), int32(left[li]))
				}
				li++
				work++
			}
			rκ := rank(k.diag)
			if v, id := bitA.prefixMin(rκ); v < costInf {
				if cand := v + int64(k.i) - 1; cand < k.d {
					k.d = cand
					k.parent = id
				}
			}
			// case B: diag_l > diag_k  <=>  reversed rank < nd-1-rκ.
			if v, id := bitB.prefixMin(nd - 2 - rκ); v < costInf {
				if cand := v + int64(k.j) - 1; cand < k.d {
					k.d = cand
					k.parent = id
				}
			}
			work += 2
		}
		bitA.reset()
		bitB.reset()
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
			if pl.d >= costInf || pl.i >= pk.i || pl.j >= pk.j {
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
	end := pts[len(pts)-1]
	d := int(end.d)
	path := make([]int, 0, 8)
	for at := end.parent; at > 0; at = pts[at].parent {
		path = append(path, int(at))
	}
	if len(path) == 0 {
		return d, Window{Gamma: 0, Kappa: -1}
	}
	first := pts[path[len(path)-1]]
	last := pts[path[0]]
	gamma := first.j - first.i
	if gamma < 0 {
		gamma = 0
	}
	kappa := last.j + (len(block) - 1 - last.i)
	if kappa > len(sbar)-1 {
		kappa = len(sbar) - 1
	}
	return d, Window{Gamma: gamma, Kappa: kappa}
}
