package ulam

import (
	"cmp"
	"slices"

	"mpcdist/internal/bitree"
	"mpcdist/internal/stats"
)

// Pair records that block character at block-relative position P occurs at
// position Q in sbar. Since sbar has no repeated characters, these pairs
// are the only information about sbar a machine needs (Section 3.1): both
// the local Ulam distance and the Ulam distance between the block and any
// window of sbar are functions of the pairs alone.
type Pair struct {
	P, Q int
}

// PairsOf lists the (block position, sbar position) pairs for characters of
// block that occur in sbar, ordered by increasing P. Neither sequence
// repeats a character, so there are at most min(len(block), len(sbar))
// pairs, and the slice is allocated once at that size.
func PairsOf(block, sbar []int) []Pair {
	pos := make(map[int]int, len(sbar))
	for q, v := range sbar {
		pos[v] = q
	}
	out := make([]Pair, 0, min(len(block), len(sbar)))
	for p, v := range block {
		if q, ok := pos[v]; ok {
			out = append(out, Pair{P: p, Q: q})
		}
	}
	return out
}

// pointsFromPairs appends to pts the DP points for ulam(block,
// sbar[sp..ep]): the virtual start (-1, -1), one point per pair whose sbar
// position lies in the window, in the pairs' order, and the virtual end
// (blockLen, window length). When local is true the boundary costs are
// charged only on the block side, which is encoded by giving the virtual
// points sentinel diagonals (see dp.go). Every point but the start has
// d = bitree.Inf. pts grows at most once, to room for len(pairs)+2 more
// points.
func pointsFromPairs(pts []point, blockLen int, pairs []Pair, sp, ep int, local bool) []point {
	pts = slices.Grow(pts, len(pairs)+2)
	winLen := max(ep-sp+1, 0)
	start := point{i: -1, j: -1, parent: -1}
	end := point{i: blockLen, j: winLen, diag: int64(blockLen - winLen), d: bitree.Inf, parent: -1}
	if local {
		start.diag = -diagInf
		end.diag = diagInf
	}
	pts = append(pts, start)
	for _, pr := range pairs {
		if pr.Q >= sp && pr.Q <= ep {
			j := pr.Q - sp
			pts = append(pts, point{i: pr.P, j: j, diag: int64(pr.P - j), d: bitree.Inf, parent: -1})
		}
	}
	return append(pts, end)
}

// WindowDist returns ulam(block, sbar[sp..ep]) given only the block length
// and the match pairs; sp > ep denotes the empty window (distance
// blockLen). Equivalent to Exact(block, sbar[sp:ep+1]) but without access
// to the strings.
func WindowDist(blockLen int, pairs []Pair, sp, ep int, ops *stats.Ops) int {
	if sp > ep {
		return blockLen
	}
	pts := pointsFromPairs(nil, blockLen, pairs, sp, ep, false)
	runDP(pts, ops)
	return int(pts[len(pts)-1].d)
}

// Pricer prices windows of sbar against one block, from the block's
// length and match pairs alone, as WindowDist does one window at a time.
// It keeps its buffers from call to call and grows one only when a call
// needs more room than any before, so that a machine pricing many window
// starts of its block allocates per block, not per start. A Pricer is not
// safe for concurrent use.
type Pricer struct {
	blockLen int
	pairs    []Pair

	pts        []point
	diags      ranks
	order      []int32 // points by increasing j
	byEnd      []int32 // ends by increasing value
	out        []int
	bitA, bitB *bitree.MinTree // all (Inf, -1) between calls
}

// NewPricer returns a Pricer for a block of blockLen characters with the
// given match pairs, which it reads but does not copy.
func NewPricer(blockLen int, pairs []Pair) *Pricer {
	nd := len(pairs) + 1 // a window's points, the virtual start included
	return &Pricer{blockLen: blockLen, pairs: pairs, bitA: bitree.NewMin(nd), bitB: bitree.NewMin(nd)}
}

// WindowDists returns ulam(block, sbar[sp..e]) for every e in ends, in the
// order of ends, from one DP over the widest window. Each end gets exactly
// WindowDist(blockLen, pairs, sp, e): ends may come in any order and
// repeat, and an end below sp denotes the empty window (distance
// blockLen). The returned slice is the Pricer's own and holds the
// results only until its next call.
//
// A match point's DP value depends only on the points before it, never on
// where the window ends, so one runDP prices every match point of
// [sp, max(ends)] once. The virtual end of a window [sp, e] then takes its
// cheapest predecessor among the points at sbar positions up to e:
// sweeping the points and the ends by sbar position, each end is two
// Fenwick prefix-minimum queries over diagonal rank, one per case of
// dp.go. Case A (predecessor diagonal <= the end's) costs
// d - i + blockLen - 1, case B d - j + winLen - 1. The trees hold a slot
// per pair, at least one per distinct diagonal, and are cleared again
// before the call returns.
func (w *Pricer) WindowDists(sp int, ends []int, ops *stats.Ops) []int {
	blockLen := w.blockLen
	out := w.out[:0]
	maxEnd := sp - 1
	for _, e := range ends {
		maxEnd = max(maxEnd, e)
		out = append(out, blockLen)
	}
	w.out = out
	if maxEnd < sp {
		return out
	}
	pts := pointsFromPairs(w.pts[:0], blockLen, w.pairs, sp, maxEnd, false)
	pts = pts[:len(pts)-1] // the virtual ends are per window, below
	w.pts = pts
	runDP(pts, ops)

	rk := diagRanks(w.diags, pts)
	w.diags = rk
	nd := len(rk)
	bitA := w.bitA // min d - i over diagonal rank (case A)
	bitB := w.bitB // min d - j over reversed rank (case B)
	order := byJ(w.order, pts, 0, len(pts))
	w.order = order
	byEnd := w.byEnd[:0]
	for k := range ends {
		byEnd = append(byEnd, int32(k))
	}
	slices.SortFunc(byEnd, func(x, y int32) int { return cmp.Compare(ends[x], ends[y]) })
	w.byEnd = byEnd

	next := 0
	var work int64
	for _, k := range byEnd {
		if ends[k] < sp {
			continue // the empty window, priced above
		}
		winLen := ends[k] - sp + 1
		for ; next < len(order) && pts[order[next]].j < winLen; next++ {
			l := &pts[order[next]]
			if l.d < bitree.Inf {
				r := rk.of(l.diag)
				bitA.Update(r, l.d-int64(l.i), order[next])
				bitB.Update(nd-1-r, l.d-int64(l.j), order[next])
			}
			work++
		}
		// c diagonals are <= the end's: case A is ranks [0, c), case B
		// ranks [c, nd), which are reversed ranks [0, nd-c). An empty
		// range's prefix minimum is bitree.Inf.
		c := rk.of(int64(blockLen-winLen) + 1)
		best := int64(bitree.Inf)
		if v, _ := bitA.PrefixMin(c - 1); v < bitree.Inf {
			best = v + int64(blockLen) - 1
		}
		if v, _ := bitB.PrefixMin(nd - 1 - c); v < bitree.Inf {
			best = min(best, v+int64(winLen)-1)
		}
		out[k] = int(best)
		work += 2
	}
	// Undo the updates, so the next call starts from empty trees.
	for _, l := range order[:next] {
		if pts[l].d < bitree.Inf {
			r := rk.of(pts[l].diag)
			bitA.Clear(r)
			bitB.Clear(nd - 1 - r)
		}
	}
	ops.Add(work)
	return out
}

// LocalPairs returns the local Ulam distance of the block against all of
// sbar (length sbarLen) given only the match pairs, together with a window
// attaining it. Equivalent to Local(block, sbar) without the strings.
func LocalPairs(blockLen int, pairs []Pair, sbarLen int, ops *stats.Ops) (int, Window) {
	pts := pointsFromPairs(nil, blockLen, pairs, 0, sbarLen-1, true)
	runDP(pts, ops)
	return localWindow(pts, blockLen, sbarLen)
}
