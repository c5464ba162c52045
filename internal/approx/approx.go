// Package approx provides a sequential subquadratic constant-factor
// edit-distance approximation. It stands in for the variant of Chakraborty
// et al. [12] that the paper invokes on each machine in the small-distance
// regime (Section 5.1, "a variant of the algorithm of [12] ... linear
// memory, approximation factor 3+eps, time O(n^{2-1/6})").
//
// Structure (documented as substitution #2 in DESIGN.md):
//
//   - Distance guesses g = 1, (1+eps), (1+eps)^2, ... are tried in
//     increasing order, as in the paper's n^delta guessing.
//   - While g <= |a|^{5/6}, the banded exact kernel decides the guess in
//     O(|a|·g) = O(|a|^{2-1/6}) time — the same exponent as [12] — and the
//     result is exact.
//   - Beyond that (the far regime), one level of the paper's own
//     large-distance machinery runs sequentially: blocks versus
//     grid-aligned candidate windows, sampled representatives with
//     triangle-inequality edges (factor 3 per Lemma 7), low-degree
//     sampling with extension to the enclosing larger block (Fig. 7), and
//     the overlap-tolerant chain DP of Section 5.2.3.
//
// The returned value is always an upper bound on ed(a, b); it equals
// ed(a, b) whenever ed(a, b) <= |a|^{5/6}, and is at most (3+O(eps))·ed
// with high probability otherwise.
//
// No MPC machine calls it: the small regime prices its pairs exactly
// (DESIGN.md, substitution 2). It serves ApproxEditDistance, the server's
// "edit-approx" and mpcdist -algo approx, and ablation 1
// (BenchmarkAblationApproxSolverOpsSlope) measures its operation-count
// exponents, the subquadratic work Theorem 9 relies on.
package approx

import (
	"bytes"
	"math"
	"math/rand"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/stats"
)

// Params tunes the approximation.
type Params struct {
	// Eps is the slack parameter; the guarantee degrades gracefully as it
	// grows. Zero means 0.5.
	Eps float64
	// Seed drives representative and low-degree sampling.
	Seed int64
}

const (
	// innerX is the inner block exponent: 5/17, the paper's Theorem 9
	// boundary, which minimizes total work.
	innerX = 5.0 / 17
	// smallCutoff: inputs with |a| at most this always use the exact
	// kernel.
	smallCutoff = 96
)

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	return p
}

// Factor returns the worst-case approximation factor guarantee for the
// given parameters (with high probability in the far regime).
func Factor(p Params) float64 {
	p = p.withDefaults()
	return 3 * (1 + p.Eps) * (1 + p.Eps)
}

// Ed returns an upper bound on the edit distance between a and b, within
// Factor(p) of optimal with high probability, exact when the distance is
// at most |a|^{5/6} or the input is below the small cutoff.
func Ed(a, b []byte, p Params, ops *stats.Ops) int {
	p = p.withDefaults()
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return la + lb
	}
	if la == lb && bytes.Equal(a, b) {
		ops.Add(int64(la))
		return 0
	}
	maxd := la + lb
	// Guess ladder.
	cut := int(math.Pow(float64(la), 5.0/6))
	accept := 3 * (1 + p.Eps)
	bestFar := max(la, lb) // trivial upper bound via substitution
	g := 1
	for {
		if g > maxd {
			g = maxd
		}
		if la <= smallCutoff || g <= cut {
			if d := editdist.BoundedDistance(a, b, g, ops); d <= g {
				return d
			}
		} else {
			v := edFar(a, b, g, p, ops)
			if v < bestFar {
				bestFar = v
			}
			if v <= int(accept*float64(g)) {
				return v
			}
		}
		if g == maxd {
			// All guesses exhausted; return the best upper bound seen.
			return bestFar
		}
		next := int(float64(g) * (1 + p.Eps))
		if next <= g {
			next = g + 1
		}
		g = next
	}
}

// nodeKey identifies a block or window substring for distance memoization.
type nodeKey struct {
	isWindow bool
	lo, hi   int // inclusive bounds within a (block) or b (window)
}

// edFar runs one level of the large-distance machinery under the
// assumption ed(a, b) <= g and returns an achievable transformation cost.
func edFar(a, b []byte, g int, p Params, ops *stats.Ops) int {
	la, lb := len(a), len(b)
	// A variable, not a constant: the exponents below are float64
	// arithmetic, rounded at each step, where a constant expression would
	// be exact and round once, to a different last bit.
	x := float64(innerX)
	y := 6 * x / 5
	yp := 4 * x / 5
	k := intPow(la, y)
	if k < 2 {
		k = 2
	}
	bsz := (la + k - 1) / k

	// Larger blocks ("groups", Fig. 7) of n^{1-y'}: group size in blocks.
	groupBlocks := intPow(la, y-yp)
	if groupBlocks < 1 {
		groupBlocks = 1
	}

	type block struct{ l, r int }
	var blocks []block
	for l := 0; l < la; l += bsz {
		r := l + bsz - 1
		if r > la-1 {
			r = la - 1
		}
		blocks = append(blocks, block{l, r})
	}
	nb := len(blocks)

	// Candidate windows per block, on the grid G' = eps·g/k.
	grid := int(p.Eps * float64(g) / float64(k))
	if grid < 1 {
		grid = 1
	}
	maxWin := int(float64(bsz)/p.Eps) + 1
	winIdx := make(map[[2]int]int)
	var wins [][2]int
	blockWins := make([][]int, nb)
	for bi, bl := range blocks {
		blen := bl.r - bl.l + 1
		for _, gamma := range cand.Starts(bl.l, g, grid, lb) {
			for _, kappa := range cand.Ends(gamma, blen, lb, p.Eps, maxWin, g) {
				key := [2]int{gamma, kappa}
				id, ok := winIdx[key]
				if !ok {
					id = len(wins)
					winIdx[key] = id
					wins = append(wins, key)
				}
				blockWins[bi] = append(blockWins[bi], id)
			}
		}
	}
	nw := len(wins)
	nT := nb + nw
	ops.Add(int64(nT))

	// Memoized exact distances between node substrings.
	memo := make(map[[2]nodeKey]int)
	sub := func(nk nodeKey) []byte {
		if nk.isWindow {
			return b[nk.lo : nk.hi+1]
		}
		return a[nk.lo : nk.hi+1]
	}
	nodeLess := func(x, y nodeKey) bool {
		if x.isWindow != y.isWindow {
			return !x.isWindow
		}
		if x.lo != y.lo {
			return x.lo < y.lo
		}
		return x.hi < y.hi
	}
	dist := func(x, y nodeKey) int {
		if nodeLess(y, x) {
			x, y = y, x
		}
		key := [2]nodeKey{x, y}
		if d, ok := memo[key]; ok {
			return d
		}
		d := editdist.Myers(sub(x), sub(y), ops)
		memo[key] = d
		return d
	}
	blockKey := func(bi int) nodeKey { return nodeKey{false, blocks[bi].l, blocks[bi].r} }
	winKey := func(wi int) nodeKey { return nodeKey{true, wins[wi][0], wins[wi][1]} }

	// Representative sampling (phase 1). Degree threshold h = la^{3x/5}
	// as in Section 5.3 (alpha = (3/5)x); sampling probability
	// 2·ln(T)/h, clamped below 1 so the machinery stays sublinear.
	h := intPow(la, 3*x/5)
	if h < 2 {
		h = 2
	}
	p1 := 2 * math.Log(float64(nT)+2) / float64(h)
	if p1 > 0.5 {
		p1 = 0.5
	}
	rng := rand.New(rand.NewSource(p.Seed ^ int64(g)<<17 ^ 0x5ca1ab1e))
	var reps []nodeKey
	for bi := 0; bi < nb; bi++ {
		if rng.Float64() < p1 {
			reps = append(reps, blockKey(bi))
		}
	}
	for wi := 0; wi < nw; wi++ {
		if rng.Float64() < p1 {
			reps = append(reps, winKey(wi))
		}
	}

	// Distances from representatives to blocks, and triangle-edge tuples:
	// for each block v and its candidate windows u, the best rep-mediated
	// bound min_z d(z,v) + d(z,u), which Lemma 7 bounds by 3·tau for pairs
	// within tau (v) and 2·tau (u) of z.
	var tuples []chain.Tuple
	covered := make([]int, nb) // per block: best d(z, v) over reps, or -1
	bestRep := make([]int, nb)
	for bi := range covered {
		covered[bi] = -1
		bestRep[bi] = -1
	}
	repToBlock := make([][]int, len(reps))
	for zi, z := range reps {
		repToBlock[zi] = make([]int, nb)
		for bi := 0; bi < nb; bi++ {
			d := dist(z, blockKey(bi))
			repToBlock[zi][bi] = d
			if covered[bi] < 0 || d < covered[bi] {
				covered[bi] = d
				bestRep[bi] = zi
			}
		}
	}
	for bi := 0; bi < nb; bi++ {
		zi := bestRep[bi]
		if zi < 0 {
			continue
		}
		dzv := repToBlock[zi][bi]
		bl := blocks[bi]
		for _, wi := range blockWins[bi] {
			dzu := dist(reps[zi], winKey(wi))
			tuples = append(tuples, chain.Tuple{
				L: bl.l, R: bl.r, G: wins[wi][0], K: wins[wi][1], D: dzv + dzu,
			})
			ops.Add(1)
		}
	}

	// Low-degree sampling with extension (phases 2 and 3). A block counts
	// as uncovered at threshold tau when no representative is within tau;
	// sampled uncovered blocks solve their candidates exactly and extend
	// hits to their group (Fig. 7).
	oneMinusDelta := float64(la) / float64(g) // n^{1-delta}
	denom := math.Pow(float64(la), y-yp) / oneMinusDelta
	if denom < 1 {
		denom = 1
	}
	lnLa := math.Log(float64(la) + 2)
	p2 := 3 * lnLa * lnLa / (p.Eps * p.Eps) / denom
	if p2 > 1 {
		p2 = 1
	}
	extended := make(map[[4]int]bool)
	tauMax := bsz + maxWin + 2
	for tau := 1; tau <= tauMax; tau = nextTau(tau, p.Eps) {
		for bi := 0; bi < nb; bi++ {
			if covered[bi] >= 0 && covered[bi] <= tau {
				continue // handled by the dense phase at this tau
			}
			if rng.Float64() >= p2 {
				continue
			}
			bl := blocks[bi]
			for _, wi := range blockWins[bi] {
				d := dist(blockKey(bi), winKey(wi))
				if d > tau {
					continue
				}
				// Extend to every block of the same group.
				g0 := (bi / groupBlocks) * groupBlocks
				g1 := min(g0+groupBlocks, nb)
				for bj := g0; bj < g1; bj++ {
					blj := blocks[bj]
					gamma := wins[wi][0] + (blj.l - bl.l)
					kappa := wins[wi][1] + (blj.r - bl.r)
					if gamma < 0 {
						gamma = 0
					}
					if kappa > lb-1 {
						kappa = lb - 1
					}
					if gamma > kappa {
						continue
					}
					ek := [4]int{blj.l, blj.r, gamma, kappa}
					if extended[ek] {
						continue
					}
					extended[ek] = true
					dd := dist(nodeKey{false, blj.l, blj.r}, nodeKey{true, gamma, kappa})
					tuples = append(tuples, chain.Tuple{L: blj.l, R: blj.r, G: gamma, K: kappa, D: dd})
				}
			}
		}
	}

	return chain.EditCost(tuples, la, lb, true, ops)
}

func nextTau(tau int, eps float64) int {
	n := int(float64(tau) * (1 + eps))
	if n <= tau {
		return tau + 1
	}
	return n
}

func intPow(n int, e float64) int {
	return int(math.Pow(float64(n), e))
}
