package ulam

import (
	"cmp"
	"slices"

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
// block that occur in sbar, ordered by increasing P.
func PairsOf(block, sbar []int) []Pair {
	pos := make(map[int]int, len(sbar))
	for q, v := range sbar {
		pos[v] = q
	}
	var out []Pair
	for p, v := range block {
		if q, ok := pos[v]; ok {
			out = append(out, Pair{P: p, Q: q})
		}
	}
	return out
}

// pointsFromPairs builds DP points for ulam(block, sbar[sp..ep]) from the
// subset of pairs whose sbar position lies in the window.
func pointsFromPairs(blockLen int, pairs []Pair, sp, ep int, local bool) []point {
	winLen := ep - sp + 1
	if winLen < 0 {
		winLen = 0
	}
	pts := make([]point, 0, len(pairs)+2)
	start := point{i: -1, j: -1, diag: 0, parent: -1}
	end := point{i: blockLen, j: winLen, diag: int64(blockLen - winLen), parent: -1}
	if local {
		start.diag = -diagInf
		end.diag = diagInf
	}
	pts = append(pts, start)
	for _, pr := range pairs {
		if pr.Q >= sp && pr.Q <= ep {
			j := pr.Q - sp
			pts = append(pts, point{i: pr.P, j: j, diag: int64(pr.P - j)})
		}
	}
	pts = append(pts, end)
	for k := range pts {
		pts[k].d = costInf
		pts[k].parent = -1
	}
	pts[0].d = 0
	return pts
}

// WindowDist returns ulam(block, sbar[sp..ep]) given only the block length
// and the match pairs; sp > ep denotes the empty window (distance
// blockLen). Equivalent to Exact(block, sbar[sp:ep+1]) but without access
// to the strings.
func WindowDist(blockLen int, pairs []Pair, sp, ep int, ops *stats.Ops) int {
	if sp > ep {
		return blockLen
	}
	pts := pointsFromPairs(blockLen, pairs, sp, ep, false)
	runDP(pts, ops)
	return int(pts[len(pts)-1].d)
}

// WindowDists returns ulam(block, sbar[sp..e]) for every e in ends, in the
// order of ends, from one DP over the widest window. Each end gets exactly
// WindowDist(blockLen, pairs, sp, e): ends may come in any order and
// repeat, and an end below sp denotes the empty window (distance
// blockLen).
//
// A match point's DP value depends only on the points before it, never on
// where the window ends, so one runDP prices every match point of
// [sp, max(ends)] once. The virtual end of a window [sp, e] then takes its
// cheapest predecessor among the points at sbar positions up to e:
// sweeping the points and the ends by sbar position, each end is two
// Fenwick prefix-minimum queries over diagonal rank, one per case of
// dp.go. Case A (predecessor diagonal <= the end's) costs
// d - i + blockLen - 1, case B d - j + winLen - 1.
func WindowDists(blockLen int, pairs []Pair, sp int, ends []int, ops *stats.Ops) []int {
	out := make([]int, len(ends))
	maxEnd := sp - 1
	for _, e := range ends {
		maxEnd = max(maxEnd, e)
	}
	if maxEnd < sp {
		for k := range out {
			out[k] = blockLen
		}
		return out
	}
	pts := pointsFromPairs(blockLen, pairs, sp, maxEnd, false)
	pts = pts[:len(pts)-1] // the virtual ends are per window, below
	runDP(pts, ops)

	rank, nd := diagRanks(pts)
	bitA := newMinBIT(nd) // min d - i over diagonal rank (case A)
	bitB := newMinBIT(nd) // min d - j over reversed rank (case B)
	byJ := make([]int32, len(pts))
	for k := range byJ {
		byJ[k] = int32(k)
	}
	slices.SortFunc(byJ, func(x, y int32) int { return cmp.Compare(pts[x].j, pts[y].j) })
	order := make([]int32, len(ends))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(ends[x], ends[y]) })

	next := 0
	var work int64
	for _, k := range order {
		if ends[k] < sp {
			out[k] = blockLen
			continue
		}
		winLen := ends[k] - sp + 1
		for ; next < len(byJ) && pts[byJ[next]].j < winLen; next++ {
			l := &pts[byJ[next]]
			if l.d < costInf {
				r := rank(l.diag)
				bitA.update(r, l.d-int64(l.i), byJ[next])
				bitB.update(nd-1-r, l.d-int64(l.j), byJ[next])
			}
			work++
		}
		// c diagonals are <= the end's: case A is ranks [0, c), case B
		// ranks [c, nd), which are reversed ranks [0, nd-c). An empty
		// range's prefix minimum is costInf.
		c := rank(int64(blockLen-winLen) + 1)
		best := costInf
		if v, _ := bitA.prefixMin(c - 1); v < costInf {
			best = v + int64(blockLen) - 1
		}
		if v, _ := bitB.prefixMin(nd - 1 - c); v < costInf {
			best = min(best, v+int64(winLen)-1)
		}
		out[k] = int(best)
		work += 2
	}
	ops.Add(work)
	return out
}

// LocalPairs returns the local Ulam distance of the block against all of
// sbar (length sbarLen) given only the match pairs, together with a window
// attaining it. Equivalent to Local(block, sbar) without the strings.
func LocalPairs(blockLen int, pairs []Pair, sbarLen int, ops *stats.Ops) (int, Window) {
	pts := pointsFromPairs(blockLen, pairs, 0, sbarLen-1, true)
	runDP(pts, ops)
	end := &pts[len(pts)-1]
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
	kappa := last.j + (blockLen - 1 - last.i)
	if kappa > sbarLen-1 {
		kappa = sbarLen - 1
	}
	return d, Window{Gamma: gamma, Kappa: kappa}
}
