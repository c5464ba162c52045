// Package ulam computes the Ulam distance — edit distance between strings
// without repeated characters, substitutions allowed — and the local Ulam
// distance used by the first round of the paper's MPC algorithm.
//
// The key structural fact (used throughout): in any optimal transformation
// of a into b, the unedited characters form a matching that is increasing
// in both strings, and between two consecutive matched pairs a gap holding
// p characters of a and q characters of b costs exactly max(p, q)
// (substitute min(p, q) of them, insert/delete the rest). Hence
//
//	ulam(a, b) = min over increasing matchings M of the summed gap costs,
//
// a dynamic program over the match points (i, j) with a[i] == b[j]. With
// distinct characters there are at most min(|a|, |b|) match points, and the
// DP runs in O(m log^2 m) with a divide-and-conquer Fenwick scheme
// (Exact / Local), or O(m^2) in the transparent reference implementation
// (exactQuadratic) that the fast path is property-tested against.
package ulam

import (
	"fmt"

	"mpcdist/internal/stats"
)

// CheckDistinct returns an error when s contains a repeated character.
// The Ulam routines require distinct characters within each input string.
func CheckDistinct(s []int) error {
	seen := make(map[int]int, len(s))
	for i, v := range s {
		if j, ok := seen[v]; ok {
			return fmt.Errorf("ulam: character %d repeats at positions %d and %d", v, j, i)
		}
		seen[v] = i
	}
	return nil
}

// point is a match point of the DP, including the two virtual endpoints.
type point struct {
	i, j   int   // coordinates; virtual start is (-1, -1), end is (|a|, |b|)
	diag   int64 // case-splitting key (see dp.go); sentinels for Local
	d      int64 // best cost of an alignment prefix ending at this match
	parent int32 // index of the predecessor realizing d, -1 if none
}

const diagInf = int64(1) << 40

// Exact returns the Ulam distance between a and b, which must each consist
// of distinct characters (they may share any subset of characters). ops is
// charged one unit per DP transition examined.
func Exact(a, b []int, ops *stats.Ops) int {
	pts := buildPoints(a, b, false)
	runDP(pts, ops)
	return int(pts[len(pts)-1].d)
}

// Window is a substring [Gamma, Kappa] of the second string (inclusive,
// 0-based). An empty window has Kappa = Gamma-1.
type Window struct {
	Gamma, Kappa int
}

// Len returns the number of characters in the window.
func (w Window) Len() int { return w.Kappa - w.Gamma + 1 }

// Local returns the local Ulam distance between block and sbar: the minimum
// Ulam distance between block and any (possibly empty) substring of sbar,
// together with a substring attaining it. Both inputs must have distinct
// characters. This is the lulam routine of Algorithm 1.
//
// Derivation (the paper's Appendix A is not part of the supplied text): an
// optimal local window may be assumed to begin and end at matched
// characters — trimming an unmatched boundary character of sbar never
// increases the cost — except for the zero-match window, whose optimum is
// the empty substring at cost |block|. So the same match-point DP applies
// with boundary costs charged only on the block side.
func Local(block, sbar []int, ops *stats.Ops) (int, Window) {
	return LocalPairs(len(block), PairsOf(block, sbar), len(sbar), ops)
}

// localWindow reads lulam's answer off a solved local DP over a block of
// blockLen characters and a string of sbarLen: the distance at the virtual
// end, and a window attaining it. The window spans the matched characters
// of the chain the end's parent links trace, widened on each side by as
// many characters of sbar as the block has beyond its outermost match, so
// that its distance stays the chain's (the cost of a gap is the max of its
// two sides, and the block side is the larger by construction). A chain
// with no match gives the empty window.
func localWindow(pts []point, blockLen, sbarLen int) (int, Window) {
	end := pts[len(pts)-1]
	if end.parent <= 0 {
		return int(end.d), Window{Gamma: 0, Kappa: -1}
	}
	first, last := pts[end.parent], pts[end.parent]
	for first.parent > 0 {
		first = pts[first.parent]
	}
	gamma := max(first.j-first.i, 0)
	kappa := min(last.j+(blockLen-1-last.i), sbarLen-1)
	return int(end.d), Window{Gamma: gamma, Kappa: kappa}
}

// buildPoints assembles the match points of a and b plus the virtual
// start and end points (see pointsFromPairs).
func buildPoints(a, b []int, local bool) []point {
	return pointsFromPairs(nil, len(a), PairsOf(a, b), 0, len(b)-1, local)
}

// BruteLocal computes the local Ulam distance by trying every substring of
// sbar (including the empty one). Exponentially slower than Local; exists
// as the oracle for tests.
func BruteLocal(block, sbar []int) (int, Window) {
	best := len(block)
	win := Window{Gamma: 0, Kappa: -1}
	for g := 0; g < len(sbar); g++ {
		for k := g; k < len(sbar); k++ {
			if d := Exact(block, sbar[g:k+1], nil); d < best {
				best = d
				win = Window{Gamma: g, Kappa: k}
			}
		}
	}
	return best, win
}
