// Package cand constructs the candidate substrings of the paper's edit
// distance algorithms (Figs. 4 and 5): for a block s[l..r], starting
// points on a coarse grid within n^delta of l, and for each starting point
// a geometric ladder of ending points around start+B-1.
//
// Using grid-aligned starting points costs at most one extra gap per block
// (Condition 3) and the geometric ladder costs a 1+eps factor on the
// window length tail (Condition 4); both are within the approximation
// budget, per Lemma 5.
//
// Phase attribution: cand has no Cluster.Run call sites of its own — its
// kernels run inside the machines of the drivers' candidate rounds
// ("ulam/candidates", "edit-small/pairs", the edit-large grid rounds), so
// every operation counted here is charged to the enclosing round's
// trace.Phase (PhaseCandidates, or PhaseGraph in the large regime).
package cand

import (
	"slices"
	"sort"
)

// Starts returns the candidate starting points (0-based) for a block whose
// offset in s is l: every index in [l-delta, l+delta] ∩ [0, m-1] divisible
// by gap, where m is the length of sbar. gap is clamped to >= 1. l itself
// is always included so that exact matches at distance 0 are representable.
func Starts(l, delta, gap, m int) []int {
	if m <= 0 {
		return nil
	}
	if gap < 1 {
		gap = 1
	}
	lo := l - delta
	if lo < 0 {
		lo = 0
	}
	hi := l + delta
	if hi > m-1 {
		hi = m - 1
	}
	var out []int
	first := ((lo + gap - 1) / gap) * gap
	for g := first; g <= hi; g += gap {
		out = append(out, g)
	}
	if l >= lo && l <= hi && l%gap != 0 {
		out = append(out, l)
	}
	sort.Ints(out) // callers rely on sorted starts (segment packing)
	return out
}

// Ends returns candidate ending points (0-based, inclusive) for a window
// beginning at gamma when the block has length blockLen: the natural end
// gamma+blockLen-1 and the geometric ladder gamma+blockLen-1 ± floor((1+eps)^a),
// subject to: end within [gamma-1, m-1] (gamma-1 encodes the empty window,
// excluded here — callers add empty windows separately), window length at
// most maxLen, and ladder offsets at most deltaCap (endpoints beyond
// kappa + n^delta can be neglected, Fig. 5).
func Ends(gamma, blockLen, m int, eps float64, maxLen, deltaCap int) []int {
	return AppendEnds(nil, gamma, blockLen, m, eps, maxLen, deltaCap)
}

// AppendEnds appends Ends(gamma, blockLen, m, eps, maxLen, deltaCap) to
// dst and returns the extended slice, so a caller can reuse one buffer
// across starts.
func AppendEnds(dst []int, gamma, blockLen, m int, eps float64, maxLen, deltaCap int) []int {
	if m <= 0 || blockLen <= 0 {
		return dst
	}
	if maxLen < 1 {
		maxLen = 1
	}
	kappa := gamma + blockLen - 1
	out := dst
	add := func(e int) {
		if e >= gamma && e <= m-1 && e-gamma+1 <= maxLen {
			out = append(out, e)
		}
	}
	add(kappa)
	if eps <= 0 {
		eps = 0.5
	}
	step := 1.0
	for {
		off := int(step)
		if off > deltaCap && off > maxLen {
			break
		}
		if off >= 1 {
			if off <= deltaCap {
				add(kappa + off)
			}
			add(kappa - off)
		}
		next := step * (1 + eps)
		if int(next) == int(step) {
			next = step + 1
		}
		step = next
		if step > float64(m)+float64(maxLen) {
			break
		}
	}
	// Always offer the smallest window (length 1) so very short optima are
	// reachable; lengths beyond blockLen + deltaCap are unreachable when
	// the distance guess holds (Fig. 5's "neglect ending points beyond
	// kappa + n^delta"). The ladder's offsets strictly increase, so kappa
	// and kappa ± off never repeat; only gamma can be one of them. Only
	// the ends appended here count: dst may hold gamma already.
	if !slices.Contains(out[len(dst):], gamma) {
		add(gamma)
	}
	return out
}
