package core

// Lemma-level tests: each validates the quantified claim behind one of the
// paper's figures on planted instances (see the experiment index in
// DESIGN.md).

import (
	"math/rand"
	"testing"

	"mpcdist/internal/cand"
	"mpcdist/internal/editdist"
	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

// plantWindow builds sbar (a permutation) plus a block that transforms
// into sbar[alpha..beta] with a small Ulam distance, tracking one unchanged
// character. Returns block, alpha, beta, and an unchanged pair (p, q)
// (block-relative p, sbar-absolute q), or p = -1 if none survived.
func plantWindow(rng *rand.Rand, sbarLen, blockLen, edits int) (sbar, block []int, alpha, beta, p, q int) {
	sbar = rng.Perm(sbarLen)
	alpha = rng.Intn(sbarLen - blockLen)
	beta = alpha + blockLen - 1
	block = append([]int(nil), sbar[alpha:beta+1]...)
	changed := make([]bool, len(block))
	fresh := 10 * sbarLen
	for e := 0; e < edits; e++ {
		i := rng.Intn(len(block))
		block[i] = fresh
		changed[i] = true
		fresh++
	}
	p = -1
	for i, ch := range changed {
		if !ch {
			p, q = i, alpha+i
			break
		}
	}
	return sbar, block, alpha, beta, p, q
}

// TestLemma1LocalUlamProximity (Fig. 2): when ulam(block, window) = u is
// small, the local Ulam solution's endpoints are within 2u of the
// window's.
func TestLemma1LocalUlamProximity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 80; trial++ {
		blockLen := 16 + rng.Intn(32)
		edits := rng.Intn(blockLen / 3) // u < B/2 regime
		sbar, block, alpha, beta, _, _ := plantWindow(rng, 200, blockLen, edits)
		u := ulam.Exact(block, sbar[alpha:beta+1], nil)
		d, win := ulam.Local(block, sbar, nil)
		if d > u {
			t.Fatalf("lulam %d exceeds window distance %d", d, u)
		}
		if abs(win.Gamma-alpha) > 2*u || abs(win.Kappa-beta) > 2*u {
			t.Fatalf("lulam window [%d,%d] not within 2u=%d of planted [%d,%d] (u=%d d=%d)",
				win.Gamma, win.Kappa, 2*u, alpha, beta, u, d)
		}
	}
}

// TestLemma2AnchorProximity (Fig. 3): an unchanged character s[p] -> sbar[q]
// anchors a window [gamma, kappa] = [q-p, q+(B-1-p)] within u of the
// planted window's endpoints.
func TestLemma2AnchorProximity(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 80; trial++ {
		blockLen := 16 + rng.Intn(32)
		edits := rng.Intn(blockLen)
		sbar, block, alpha, beta, p, q := plantWindow(rng, 200, blockLen, edits)
		if p < 0 {
			continue
		}
		u := ulam.Exact(block, sbar[alpha:beta+1], nil)
		gamma := q - p
		kappa := q + (blockLen - 1 - p)
		if abs(gamma-alpha) > u || abs(kappa-beta) > u {
			t.Fatalf("anchor window [%d,%d] not within u=%d of [%d,%d]",
				gamma, kappa, u, alpha, beta)
		}
	}
}

// TestLemma5CandidateCover (Figs. 4-5): the grid of starting points and
// geometric ladder of ending points contains an approximately optimal
// candidate for any window satisfying the lemma's length bounds.
func TestLemma5CandidateCover(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	eps := 0.25
	for trial := 0; trial < 120; trial++ {
		m := 400
		blockLen := 40
		l := rng.Intn(m - blockLen) // block offset in s
		g := 10 + rng.Intn(150)     // distance guess
		grid := max(1, int(eps*float64(g)/8))
		maxWin := int(float64(blockLen)/eps) + 1
		// A planted "opt" window within the lemma's bounds. Its length may
		// deviate from the block length by at most the guess (a block's
		// share of the distance cannot exceed the total), and stays under
		// the (1/eps)·B cap.
		alpha := l - g + rng.Intn(2*g)
		alpha = max(0, min(alpha, m-1))
		if alpha+grid > m-1 {
			continue // interior windows only: Lemma 5 presumes alpha+G <= n
		}
		dev := rng.Intn(min(g, blockLen-1)+1) * (1 - 2*rng.Intn(2))
		wlen := min(max(1, blockLen+dev), maxWin)
		beta := min(alpha+wlen-1, m-1)
		ed := abs(wlen-blockLen) + rng.Intn(10) // plausible distance

		found := false
		for _, ap := range cand.Starts(l, g, grid, m) {
			if ap < alpha || ap > alpha+grid {
				continue // condition 3 window
			}
			for _, bp := range cand.Ends(ap, blockLen, m, eps, maxWin, g) {
				lo := beta - grid - int(eps*float64(ed)) - int(eps*float64(abs(beta-alpha+1-blockLen))) - 2
				if bp >= lo && bp <= beta {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("no approximately optimal candidate for l=%d g=%d window=[%d,%d] (grid=%d)",
				l, g, alpha, beta, grid)
		}
	}
}

// TestLemma7TriangleEdges (Fig. 6): every edge added through a
// representative has true distance at most 3·tau, and dense nodes are
// covered by some representative with high probability.
func TestLemma7TriangleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	// Clustered strings: clusters of near-identical strings are dense in
	// G_tau; isolated strings are sparse.
	var nodes [][]byte
	for c := 0; c < 6; c++ {
		center := workload.RandomString(rng, 60, 4)
		for i := 0; i < 12; i++ {
			nodes = append(nodes, workload.PlantedEdits(rng, center, 2, 4))
		}
	}
	for i := 0; i < 10; i++ {
		nodes = append(nodes, workload.RandomString(rng, 60, 4))
	}
	tau := 6
	deg := make([]int, len(nodes))
	dist := make([][]int, len(nodes))
	for i := range nodes {
		dist[i] = make([]int, len(nodes))
		for j := range nodes {
			dist[i][j] = editdist.Distance(nodes[i], nodes[j], nil)
		}
	}
	for i := range nodes {
		for j := range nodes {
			if i != j && dist[i][j] <= tau {
				deg[i]++
			}
		}
	}
	h := 8 // degree threshold
	// Sample representatives at the paper's rate.
	var reps []int
	p := 2.0 * 4.4 / float64(h) // 2 ln(n)/h with n ~ 82
	for i := range nodes {
		if rng.Float64() < p {
			reps = append(reps, i)
		}
	}
	// Edge generation via N_tau(z) x N_2tau(z).
	covered := make(map[int]bool)
	for _, z := range reps {
		for v := range nodes {
			if dist[z][v] > tau {
				continue
			}
			covered[v] = true
			for u := range nodes {
				if dist[z][u] <= 2*tau && u != v {
					if dist[v][u] > 3*tau {
						t.Fatalf("triangle edge (%d,%d) has distance %d > 3tau=%d",
							v, u, dist[v][u], 3*tau)
					}
				}
			}
		}
	}
	// Dense nodes must be covered (whp; fixed seed).
	misses := 0
	for v := range nodes {
		if deg[v] >= h && !covered[v] {
			misses++
		}
	}
	if misses > len(nodes)/20 {
		t.Errorf("%d dense nodes uncovered (reps=%d)", misses, len(reps))
	}
}

// TestLowDegreeExtension (Fig. 7): if block v maps to window w, a
// same-group neighbor block j maps to the shifted window with distance at
// most ed(v,w) plus twice the distance the neighbor contributes — i.e. the
// extension's cost is bounded by a constant multiple of the local optima.
func TestLowDegreeExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 40; trial++ {
		n := 400
		s := workload.RandomString(rng, n, 4)
		sbar := workload.PlantedEdits(rng, s, 10, 4)
		m := len(sbar)
		bsz := 50
		// Adjacent blocks v (at l0) and j (at l0+bsz).
		l0 := rng.Intn(n - 2*bsz)
		bv := s[l0 : l0+bsz]
		bj := s[l0+bsz : l0+2*bsz]
		// Best window for v by scanning starts near the diagonal.
		bestD, bestG := bsz+1, l0
		for gamma := max(0, l0-20); gamma <= min(m-bsz, l0+20); gamma++ {
			if d := editdist.Distance(bv, sbar[gamma:min(gamma+bsz, m)], nil); d < bestD {
				bestD, bestG = d, gamma
			}
		}
		// Extension: j gets the shifted window.
		gj := bestG + bsz
		if gj+bsz > m {
			continue
		}
		dj := editdist.Distance(bj, sbar[gj:gj+bsz], nil)
		// Fig. 7's claim, loosely: the shifted window is within a constant
		// multiple of the total local distortion.
		budget := 2*(bestD+1) + 20 // 20 >= planted distance upper bound
		if dj > budget {
			t.Fatalf("extension distance %d exceeds budget %d (bestD=%d)", dj, budget, bestD)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
