// Package lcs computes longest common subsequences of general strings.
// LCS is the dual problem of edit distance in the paper's framing
// (Section 1: "edit distance and longest common subsequence (LCS) ... are
// considered as dual problems"), and the indel-only edit distance equals
// |a| + |b| - 2·LCS(a, b).
//
// Three algorithms are provided: the classic quadratic DP (space
// efficient), Hunt-Szymanski's O((r + n) log n) sparse algorithm (r =
// number of matching pairs — near-linear on skewed or distinct-character
// inputs), and Hirschberg recovery of one optimal matching.
package lcs

import (
	"sort"

	"mpcdist/internal/stats"
)

// Length returns |LCS(a, b)| with the classic DP: O(|a|·|b|) time,
// O(min) space. ops is charged per DP cell.
func Length(a, b []byte, ops *stats.Ops) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	ops.Add(int64(len(a)) * int64(len(b)))
	return lcsRow(a, b)[len(b)]
}

// HuntSzymanski returns |LCS(a, b)| in O((r + n + sigma) log n) time where
// r is the number of (i, j) pairs with a[i] == b[j]. For strings with few
// repeated characters r is near-linear and this vastly outperforms the DP.
func HuntSzymanski(a, b []byte, ops *stats.Ops) int {
	// occ[c] = positions of c in b, ascending.
	var occ [256][]int32
	for j, c := range b {
		occ[c] = append(occ[c], int32(j))
	}
	// Reduce to LIS over the concatenation, per a-position, of b-positions
	// in DESCENDING order (so at most one match per a-position counts).
	tails := make([]int32, 0, 64)
	var work int64
	for _, c := range a {
		ps := occ[c]
		for k := len(ps) - 1; k >= 0; k-- {
			v := ps[k]
			// Strictly increasing LIS: find first tail >= v.
			idx := sort.Search(len(tails), func(x int) bool { return tails[x] >= v })
			if idx == len(tails) {
				tails = append(tails, v)
			} else {
				tails[idx] = v
			}
			work++
		}
	}
	ops.Add(work + int64(len(a)) + int64(len(b)))
	return len(tails)
}

// Pair is one matched column of an LCS alignment: a[I] == b[J].
type Pair struct {
	I, J int
}

// Pairs returns one optimal LCS matching as index pairs, increasing in
// both coordinates, using Hirschberg's linear-space divide and conquer.
func Pairs(a, b []byte) []Pair {
	out := make([]Pair, 0, 16)
	hirschbergLCS(a, b, 0, 0, &out)
	return out
}

// lcsRow returns the last row of LCS lengths between a and prefixes of b,
// computed in one row of len(b)+1 cells.
func lcsRow(a, b []byte) []int {
	row := make([]int, len(b)+1)
	for _, ai := range a {
		diag := 0 // row[j-1] of the previous row
		for j := 1; j <= len(b); j++ {
			up := row[j]
			switch {
			case ai == b[j-1]:
				row[j] = diag + 1
			case up < row[j-1]:
				row[j] = row[j-1]
			}
			diag = up
		}
	}
	return row
}

func reverseBytes(s []byte) []byte {
	r := make([]byte, len(s))
	for i, c := range s {
		r[len(s)-1-i] = c
	}
	return r
}

func hirschbergLCS(a, b []byte, aOff, bOff int, out *[]Pair) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	if len(a) == 1 {
		for j, c := range b {
			if c == a[0] {
				*out = append(*out, Pair{I: aOff, J: bOff + j})
				return
			}
		}
		return
	}
	mid := len(a) / 2
	fwd := lcsRow(a[:mid], b)
	rev := lcsRow(reverseBytes(a[mid:]), reverseBytes(b))
	split, best := 0, -1
	for j := 0; j <= len(b); j++ {
		if v := fwd[j] + rev[len(b)-j]; v > best {
			best, split = v, j
		}
	}
	hirschbergLCS(a[:mid], b[:split], aOff, bOff, out)
	hirschbergLCS(a[mid:], b[split:], aOff+mid, bOff+split, out)
}

// IndelDistance returns the insert/delete-only edit distance
// |a| + |b| - 2·LCS(a, b), the LCS-dual metric.
func IndelDistance(a, b []byte, ops *stats.Ops) int {
	return len(a) + len(b) - 2*HuntSzymanski(a, b, ops)
}

// PairsOf returns one optimal LCS matching over any comparable alphabet,
// increasing in both coordinates. It runs the Hunt-Szymanski LIS with
// predecessor tracking, O((r + n) log n) time and O(r) space.
func PairsOf[T comparable](a, b []T) []Pair {
	occ := make(map[T][]int32, len(b))
	for j, c := range b {
		occ[c] = append(occ[c], int32(j))
	}
	type node struct {
		i, j int32
		prev int32 // index into nodes, -1 for none
	}
	var nodes []node
	tails := make([]int32, 0, 64)    // b-positions
	tailNode := make([]int32, 0, 64) // node index per pile
	for i, c := range a {
		ps := occ[c]
		for k := len(ps) - 1; k >= 0; k-- {
			v := ps[k]
			idx := sort.Search(len(tails), func(x int) bool { return tails[x] >= v })
			prev := int32(-1)
			if idx > 0 {
				prev = tailNode[idx-1]
			}
			nodes = append(nodes, node{i: int32(i), j: v, prev: prev})
			if idx == len(tails) {
				tails = append(tails, v)
				tailNode = append(tailNode, int32(len(nodes)-1))
			} else {
				tails[idx] = v
				tailNode[idx] = int32(len(nodes) - 1)
			}
		}
	}
	if len(tails) == 0 {
		return nil
	}
	out := make([]Pair, len(tails))
	at := tailNode[len(tailNode)-1]
	for k := len(out) - 1; k >= 0; k-- {
		out[k] = Pair{I: int(nodes[at].i), J: int(nodes[at].j)}
		at = nodes[at].prev
	}
	return out
}
