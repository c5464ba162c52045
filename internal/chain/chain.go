// Package chain implements the "second phase" dynamic programs of the
// paper: given tuples — (block of s, candidate substring of s-bar,
// distance) triples gathered by the first round(s) — select a chain of
// tuples forming a global transformation of s into s-bar of minimum total
// cost.
//
// Two cost models are provided, matching the paper's two algorithms:
//
//   - UlamCost (Algorithm 2): the characters between two consecutive chosen
//     tuples cost max(s-gap, sbar-gap), because with distinct characters
//     min(p, q) of them can be substituted pairwise.
//   - EditCost (Algorithm 4): the characters between tuples cost
//     s-gap + sbar-gap (deletions plus insertions).
//
// EditCost optionally admits overlapping candidate substrings, charging the
// overlap (the "minor difference" noted in Section 5.2.3 for the
// large-distance regime), and is implemented both as the transparent
// quadratic DP printed in the paper and as a Fenwick-accelerated
// O(T log T) variant (the "suitable data structure" remark).
//
// Phase attribution: chain has no Cluster.Run call sites of its own — the
// DPs execute on the single machine of each driver's final round
// ("ulam/chain", "edit-small/chain", "edit-large/chain", and the baseline
// chain rounds), so every operation counted here is charged to that
// round's trace.PhaseChain.
//
// All coordinates are 0-based and inclusive.
package chain

import (
	"cmp"
	"slices"
	"sort"

	"mpcdist/internal/bitree"
	"mpcdist/internal/stats"
)

// Tuple is one partial solution: block s[L..R] transforms into
// sbar[G..K] at cost D. An empty candidate substring is encoded K = G-1.
type Tuple struct {
	L, R int // block interval in s, inclusive
	G, K int // candidate interval in sbar, inclusive (K = G-1 if empty)
	D    int // distance (or distance upper bound) for this pair
}

// cmpLG orders tuples by (L, G), the order every DP here visits them in:
// a tuple's predecessors all start at a lower L.
func cmpLG(a, b Tuple) int { return cmp.Or(cmp.Compare(a.L, b.L), cmp.Compare(a.G, b.G)) }

// SortLG puts tuples in (L, G) order in place, the order the DPs visit
// them in, and leaves a slice already in that order as it is. A caller
// that owns its tuple set sorts it here, so that no DP has to copy it.
func SortLG(tuples []Tuple) {
	if !slices.IsSortedFunc(tuples, cmpLG) {
		sort.Slice(tuples, func(a, b int) bool { return cmpLG(tuples[a], tuples[b]) < 0 })
	}
}

// byLG returns tuples in (L, G) order: tuples itself when it is in that
// order already, else a copy sorted by SortLG. The DPs only read what it
// returns, so none of them modifies its argument. sort.Slice leaves a
// slice in order as it is, ties included, so SortLG in place and byLG
// give one sequence.
func byLG(tuples []Tuple) []Tuple {
	if slices.IsSortedFunc(tuples, cmpLG) {
		return tuples
	}
	ts := slices.Clone(tuples)
	SortLG(ts)
	return ts
}

// walk returns the chain that ends at ts[end] in block order, following
// parent links back to a tuple with none; end = -1 gives the empty chain.
func walk(ts []Tuple, parent []int, end int) []Tuple {
	var out []Tuple
	for at := end; at >= 0; at = parent[at] {
		out = append(out, ts[at])
	}
	slices.Reverse(out)
	return out
}

// UlamCost runs Algorithm 2: the minimum cost of transforming s (length n)
// into sbar (length m) choosing a non-overlapping increasing chain of
// tuples, with max-gap costs. Quadratic in len(tuples), as in the paper.
// An empty tuple set yields max(n, m) (full substitution).
func UlamCost(tuples []Tuple, n, m int, ops *stats.Ops) int {
	v, _ := UlamCostChain(tuples, n, m, ops)
	return v
}

// UlamCostChain is UlamCost plus the chain realizing it: the selected
// tuples in increasing block order. An empty chain means the whole
// transformation is a bulk substitution/indel.
func UlamCostChain(tuples []Tuple, n, m int, ops *stats.Ops) (int, []Tuple) {
	ts := byLG(tuples)
	best := max(n, m) // use no tuples at all
	bestEnd := -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	var work int64
	for a, t := range ts {
		d[a] = max(t.L, t.G) + t.D
		parent[a] = -1
		for b, p := range ts[:a] {
			if p.R < t.L && p.K < t.G && int64(d[b]) < bitree.Inf {
				gap := max(t.L-p.R-1, t.G-p.K-1)
				if c := d[b] + gap + t.D; c < d[a] {
					d[a] = c
					parent[a] = b
				}
			}
		}
		work += int64(a + 1)
		if c := d[a] + max(n-1-t.R, m-1-t.K); c < best {
			best = c
			bestEnd = a
		}
	}
	ops.Add(work)
	return best, walk(ts, parent, bestEnd)
}

// EditCostQuadratic runs Algorithm 4 exactly as printed (additive gap
// costs, quadratic time). When allowOverlap is true, tuples whose candidate
// substrings intersect a predecessor's may still chain, paying the overlap
// length, per Section 5.2.3.
func EditCostQuadratic(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) int {
	v, _ := EditCostChain(tuples, n, m, allowOverlap, ops)
	return v
}

// EditCostChain is EditCostQuadratic plus the chain realizing the value.
func EditCostChain(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) (int, []Tuple) {
	ts := byLG(tuples)
	best := n + m
	bestEnd := -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	var work int64
	for a, t := range ts {
		d[a] = t.L + t.G + t.D
		parent[a] = -1
		for b, p := range ts[:a] {
			if p.R >= t.L || int64(d[b]) >= bitree.Inf {
				continue
			}
			sgap := t.L - p.R - 1
			var bgap int
			switch {
			case p.K < t.G:
				bgap = t.G - p.K - 1
			case allowOverlap:
				bgap = p.K - t.G + 1 // remove the common part
			default:
				continue
			}
			if c := d[b] + sgap + bgap + t.D; c < d[a] {
				d[a] = c
				parent[a] = b
			}
		}
		work += int64(a + 1)
		if c := d[a] + (n - 1 - t.R) + (m - 1 - t.K); c < best {
			best = c
			bestEnd = a
		}
	}
	ops.Add(work)
	return best, walk(ts, parent, bestEnd)
}

// sweep is the pass EditCost and LCSScore share. It holds the tuples in
// (L, G) order, their DP values d, and the distinct K values ascending:
// the rank of a K value is its index in keys.
type sweep struct {
	ts   []Tuple
	d    []int
	keys []int
}

func newSweep(tuples []Tuple) sweep {
	ts := byLG(tuples)
	keys := make([]int, len(ts))
	for i, t := range ts {
		keys[i] = t.K
	}
	slices.Sort(keys)
	return sweep{ts: ts, d: make([]int, len(ts)), keys: slices.Compact(keys)}
}

// run visits the tuples in (L, G) order. Before tuple a it admits, in R
// order and once each, every tuple b with R_b < L_a, whose value d[b] is
// final by then (L_b <= R_b < L_a): admit gets b and the rank of K_b.
// value gets a and the number of ranks below G_a, the prefix that holds
// a's predecessors with K_b < G_a, and returns d[a]. One op is charged
// per admission and two per visit.
func (s *sweep) run(admit func(b, r int), value func(a, below int) int, ops *stats.Ops) {
	byR := make([]int, len(s.ts))
	for i := range byR {
		byR[i] = i
	}
	sort.Slice(byR, func(x, y int) bool { return s.ts[byR[x]].R < s.ts[byR[y]].R })
	ins := 0
	var work int64
	for a, t := range s.ts {
		for ; ins < len(byR) && s.ts[byR[ins]].R < t.L; ins++ {
			b := byR[ins]
			admit(b, sort.SearchInts(s.keys, s.ts[b].K))
			work++
		}
		s.d[a] = value(a, sort.SearchInts(s.keys, t.G))
		work += 2
	}
	ops.Add(work)
}

// EditCost computes the same value as EditCostQuadratic in O(T log T) using
// two Fenwick trees over the candidate endpoints: for a tuple a the
// transition cost splits additively into
//
//	kappa' <  gamma_a:  (L_a + G_a - 2·0) + (D[b] - R_b - K_b) - 2
//	kappa' >= gamma_a:  (L_a - G_a)       + (D[b] - R_b + K_b)
//
// so prefix/suffix minima over compressed K values suffice. Tuples are
// inserted once their R is below the current query's L (their D values are
// final by then, since L_b <= R_b < L_a).
func EditCost(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) int {
	s := newSweep(tuples)
	nk := len(s.keys)
	pre := bitree.NewMin(nk + 1) // min over K <= q of D[b]-R_b-K_b
	suf := bitree.NewMin(nk + 1) // min over K >= q of D[b]-R_b+K_b (reversed)
	best := n + m
	s.run(func(b, r int) {
		p := s.ts[b]
		pre.Update(r, int64(s.d[b]-p.R-p.K), int32(b))
		suf.Update(nk-1-r, int64(s.d[b]-p.R+p.K), int32(b))
	}, func(a, below int) int {
		t := s.ts[a]
		d := t.L + t.G + t.D
		// kappa' <= gamma_a - 1: prefix over the ranks of values <= G-1.
		if v, _ := pre.PrefixMin(below - 1); v < bitree.Inf {
			d = min(d, int(v)+t.L+t.G-2+t.D)
		}
		if allowOverlap {
			// kappa' >= gamma_a: suffix over the ranks of values >= G.
			if v, _ := suf.PrefixMin(nk - 1 - below); v < bitree.Inf {
				d = min(d, int(v)+t.L-t.G+t.D)
			}
		}
		best = min(best, d+(n-1-t.R)+(m-1-t.K))
		return d
	}, ops)
	return best
}

// LCSScore returns the maximum total score of an ordered, non-overlapping
// chain of tuples, where Tuple.D holds the LCS (score) of the pair instead
// of a distance — the maximization dual of EditCost used by the LCS MPC
// extension. Gaps contribute nothing. Implemented with a Fenwick
// prefix-max over candidate endpoints in O(T log T), taken as the prefix
// minimum of negated scores; LCSScoreChain is the quadratic variant that
// also recovers a chain.
func LCSScore(tuples []Tuple, ops *stats.Ops) int {
	s := newSweep(tuples)
	tree := bitree.NewMin(len(s.keys) + 1) // min over K <= q of -D[b]
	best := 0
	s.run(func(b, r int) {
		tree.Update(r, -int64(s.d[b]), int32(b))
	}, func(a, below int) int {
		d := s.ts[a].D
		// Predecessors need K < G: prefix over the ranks below rank(G).
		if v, _ := tree.PrefixMin(below - 1); v < 0 {
			d += int(-v)
		}
		best = max(best, d)
		return d
	}, ops)
	return best
}

// LCSScoreChain is LCSScore plus a chain realizing it.
func LCSScoreChain(tuples []Tuple, ops *stats.Ops) (int, []Tuple) {
	ts := byLG(tuples)
	best, bestEnd := 0, -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	var work int64
	for a, t := range ts {
		d[a] = t.D
		parent[a] = -1
		for b, p := range ts[:a] {
			if p.R < t.L && p.K < t.G {
				if c := d[b] + t.D; c > d[a] {
					d[a] = c
					parent[a] = b
				}
			}
		}
		work += int64(a + 1)
		if d[a] > best {
			best, bestEnd = d[a], a
		}
	}
	ops.Add(work)
	return best, walk(ts, parent, bestEnd)
}
