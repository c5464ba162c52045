// Package lis implements longest-increasing-subsequence computations and
// the LCS of sequences with distinct characters, which reduce to LIS.
//
// In the paper's terminology, Ulam distance and LIS are dual problems: the
// indel-only Ulam distance between two permutations of the same set equals
// 2(n - LCS), and LCS of permutations is an LIS after relabeling. These
// routines back the public API's LIS and indel-only Ulam distance.
package lis

import "sort"

// Length returns the length of the longest strictly increasing subsequence
// of a in O(n log n) time via patience sorting.
func Length(a []int) int {
	tails := make([]int, 0, 16)
	for _, v := range a {
		i := sort.SearchInts(tails, v)
		if i == len(tails) {
			tails = append(tails, v)
		} else {
			tails[i] = v
		}
	}
	return len(tails)
}

// LCSDistinct returns the length of the longest common subsequence of a and
// b under the promise that the characters within each of a and b are
// distinct. It runs in O((|a|+|b|) log) time: relabel each element of b by
// its position in a (dropping characters absent from a) and take the LIS.
func LCSDistinct(a, b []int) int {
	pos := make(map[int]int, len(a))
	for i, v := range a {
		pos[v] = i
	}
	seq := make([]int, 0, len(b))
	for _, v := range b {
		if p, ok := pos[v]; ok {
			seq = append(seq, p)
		}
	}
	return Length(seq)
}

// IndelUlam returns the insert/delete-only Ulam distance between sequences
// with distinct characters: |a| + |b| - 2·LCS(a, b). This is the relaxed
// notion (no substitutions) studied by Naumovitz et al.; the ulam package
// computes the conventional (substitution-allowed) distance.
func IndelUlam(a, b []int) int {
	return len(a) + len(b) - 2*LCSDistinct(a, b)
}
