package chain

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// chainCase decodes a chain DP instance from fuzz bytes: n in [1, 64] and
// m in [0, 64], then up to 48 tuples of five bytes each. The decoding
// leans towards the cases the DPs' conditions tell apart: a flag in a
// tuple's first byte starts its block right after the previous block ends
// (R+1 = L), another gives it an empty window (K = G-1), and a third
// repeats the previous tuple's K.
func chainCase(data []byte) (ts []Tuple, n, m int) {
	if len(data) < 2 {
		return nil, 1, 0
	}
	n, m = 1+int(data[0])%64, int(data[1])%65
	for data = data[2:]; len(data) >= 5 && len(ts) < 48; data = data[5:] {
		b := data[:5]
		t := Tuple{L: int(b[0]>>3) % n}
		if b[0]&1 != 0 && len(ts) > 0 && ts[len(ts)-1].R+1 < n {
			t.L = ts[len(ts)-1].R + 1
		}
		t.R = t.L + int(b[1])%(n-t.L)
		t.G = int(b[2]) % (m + 1)
		t.K = t.G - 1 + int(b[3])%(m-t.G+1)
		if b[0]&2 != 0 {
			t.K = t.G - 1
		}
		if b[0]&4 != 0 && len(ts) > 0 {
			t.K = ts[len(ts)-1].K
			t.G = min(t.G, t.K+1)
		}
		t.D = int(b[4]) % 24
		ts = append(ts, t)
	}
	return ts, n, m
}

// checkChain fails unless chain is in block order (R below the next L,
// and K below the next G unless overlap is allowed) and its gaps, priced
// one by one with gap(prev, next) from a virtual start tuple ending at
// (-1, -1) to a virtual end tuple starting at (n, m), plus each tuple's D,
// sum to value.
func checkChain(t *testing.T, name string, chain []Tuple, n, m, value int, overlap bool, gap func(p, q Tuple) int) {
	t.Helper()
	prev := Tuple{R: -1, K: -1}
	sum := 0
	for _, c := range chain {
		if prev.R >= c.L || (!overlap && prev.K >= c.G) {
			t.Fatalf("%s: chain out of block order at %+v after %+v: %v", name, c, prev, chain)
		}
		sum += gap(prev, c) + c.D
		prev = c
	}
	if sum += gap(prev, Tuple{L: n, G: m}); sum != value {
		t.Fatalf("%s: chain %v prices to %d, DP returned %d (n=%d m=%d)", name, chain, sum, value, n, m)
	}
}

// FuzzChainDPs checks the Fenwick chain DPs against the quadratic ones,
// with and without overlap, and that every chain a quadratic DP returns is
// in block order and re-prices gap by gap to the value it returned. It
// also checks byLG's copy-free path: no DP modifies its argument, and the
// same tuples already in (L, G) order, sorted with byLG's comparator by
// sort.Slice on a copy, give every DP the same value and every quadratic
// DP the same chain.
func FuzzChainDPs(f *testing.F) {
	f.Add([]byte{10, 10, 0, 4, 0, 5, 0, 40, 4, 4, 9, 0})
	f.Add([]byte{20, 16, 1, 3, 2, 6, 1, 9, 7, 5, 9, 4, 0, 2, 0, 0, 3, 5, 4, 3, 1, 9})
	f.Add([]byte{63, 64, 8, 10, 20, 5, 7, 81, 12, 3, 30, 2, 4, 9, 50, 8, 11, 2, 1, 4, 40, 0, 6, 21, 3, 9, 5, 3, 7, 2, 16})
	f.Add([]byte{5, 0, 0, 1, 0, 0, 3, 17, 2, 0, 0, 1})
	// A one-character block with an empty window: a sweep that admitted
	// R = L would chain it after itself.
	f.Add([]byte{4, 5, 10, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, n, m := chainCase(data)
		sorted := slices.Clone(ts)
		sort.Slice(sorted, func(a, b int) bool { return cmpLG(sorted[a], sorted[b]) < 0 })
		for _, dp := range chainDPs(n, m) {
			var v [2]int
			var c [2][]Tuple
			for i, arg := range [][]Tuple{ts, sorted} {
				in := slices.Clone(arg)
				if v[i], c[i] = dp.run(in); !slices.Equal(in, arg) {
					t.Fatalf("%s modified its argument: %v, was %v", dp.name, in, arg)
				}
			}
			if v[0] != v[1] || !slices.Equal(c[0], c[1]) {
				t.Fatalf("%s: (L, G)-ordered input gives %d %v, unordered %d %v (tuples=%v)", dp.name, v[1], c[1], v[0], c[0], ts)
			}
		}
		editGap := func(overlap bool) func(p, q Tuple) int {
			return func(p, q Tuple) int {
				if overlap && p.K >= q.G {
					return q.L - p.R - 1 + p.K - q.G + 1
				}
				return q.L - p.R - 1 + q.G - p.K - 1
			}
		}
		for _, overlap := range []bool{false, true} {
			want, chain := EditCostChain(ts, n, m, overlap, nil)
			if got := EditCost(ts, n, m, overlap, nil); got != want {
				t.Fatalf("overlap=%v: EditCost = %d, EditCostQuadratic = %d (n=%d m=%d tuples=%v)", overlap, got, want, n, m, ts)
			}
			checkChain(t, "EditCostChain", chain, n, m, want, overlap, editGap(overlap))
		}
		v, chain := UlamCostChain(ts, n, m, nil)
		checkChain(t, "UlamCostChain", chain, n, m, v, false, func(p, q Tuple) int {
			return max(q.L-p.R-1, q.G-p.K-1)
		})
		v, chain = LCSScoreChain(ts, nil)
		if got := LCSScore(ts, nil); got != v {
			t.Fatalf("LCSScore = %d, LCSScoreChain = %d (tuples=%v)", got, v, ts)
		}
		checkChain(t, "LCSScoreChain", chain, n, m, v, false, func(p, q Tuple) int { return 0 })
	})
}

// chainDP is one of the package's DPs, returning its value and, for the
// quadratic DPs, its chain.
type chainDP struct {
	name string
	run  func(ts []Tuple) (int, []Tuple)
}

// chainDPs returns every DP of the package on an instance with s of
// length n and sbar of length m.
func chainDPs(n, m int) []chainDP {
	var dps []chainDP
	for _, overlap := range []bool{false, true} {
		dps = append(dps,
			chainDP{fmt.Sprintf("EditCost(overlap=%v)", overlap), func(ts []Tuple) (int, []Tuple) {
				return EditCost(ts, n, m, overlap, nil), nil
			}},
			chainDP{fmt.Sprintf("EditCostChain(overlap=%v)", overlap), func(ts []Tuple) (int, []Tuple) {
				return EditCostChain(ts, n, m, overlap, nil)
			}})
	}
	return append(dps,
		chainDP{"UlamCostChain", func(ts []Tuple) (int, []Tuple) { return UlamCostChain(ts, n, m, nil) }},
		chainDP{"LCSScore", func(ts []Tuple) (int, []Tuple) { return LCSScore(ts, nil), nil }},
		chainDP{"LCSScoreChain", func(ts []Tuple) (int, []Tuple) { return LCSScoreChain(ts, nil) }})
}
