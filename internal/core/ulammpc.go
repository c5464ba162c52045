package core

import (
	"math"
	"math/rand"
	"slices"

	"mpcdist/internal/chain"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/ulam"
)

// ulamJob is the round-1 payload for one block of s: the block's interval,
// the length of sbar, and the positions in sbar of the block's characters.
// Per Section 3.1, this is the only information about sbar the machine
// needs, and it is Õ(B) words.
type ulamJob struct {
	L, R    int
	SbarLen int
	Pairs   []ulam.Pair
}

// Words implements mpc.Payload.
func (j *ulamJob) Words() int { return 4 + 2*len(j.Pairs) }

// UlamMPC approximates ulam(s, sbar) within 1+eps with high probability in
// two MPC rounds (Theorem 4). Both inputs must have distinct characters.
// It requires 0 < X < 1/2.
func UlamMPC(s, sbar []int, p Params) (Result, error) {
	p = p.named("ulam-mpc")
	n := max(len(s), len(sbar))
	if err := p.validate(n, MaxXHalf); err != nil {
		return Result{}, err
	}
	if err := ulam.CheckDistinct(s); err != nil {
		return Result{}, err
	}
	if err := ulam.CheckDistinct(sbar); err != nil {
		return Result{}, err
	}

	epsP := p.Eps / 2 // the paper's eps' = eps/2 (Section 4)
	bsz := intPow(n, 1-p.X)
	cl := p.Cluster(n)

	// Distribute: one machine per block, carrying the block's match pairs.
	// This is driver-side block partition (the simulator's drivers
	// partition outside rounds), labeled phase=partition for CPU profiles.
	inputs := make(map[int][]mpc.Payload)
	trace.LabelPhase(p.Algo, trace.PhasePartition, "ulam/partition", func() {
		pos := make(map[int]int, len(sbar))
		for q, v := range sbar {
			pos[v] = q
		}
		blockID := 0
		for l := 0; l < len(s); l += bsz {
			r := min(l+bsz-1, len(s)-1)
			job := &ulamJob{L: l, R: r, SbarLen: len(sbar)}
			for pRel := 0; pRel <= r-l; pRel++ {
				if q, ok := pos[s[l+pRel]]; ok {
					job.Pairs = append(job.Pairs, ulam.Pair{P: pRel, Q: q})
				}
			}
			inputs[blockID] = []mpc.Payload{job}
			blockID++
		}
	})
	if len(s) == 0 {
		// Degenerate: nothing to transform; cost is inserting all of sbar.
		return Result{Value: len(sbar), Report: cl.Report()}, nil
	}

	// Round 1: Algorithm 1 on every block machine.
	out, err := cl.Run("ulam/candidates", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		for _, pl := range in {
			runUlamRound1(x, pl.(*ulamJob), n, epsP)
		}
	})
	if err != nil {
		return Result{}, err
	}

	// Round 2: Algorithm 2 on a single machine, which also ships back the
	// selected chain: the approximate decomposition of s into matched
	// windows of sbar. With no candidates anywhere (e.g. disjoint
	// alphabets) it reports the trivial transformation.
	v, picked, err := ChainRound(cl, "ulam/chain", out, func(tuples []chain.Tuple, ops *stats.Ops) (int, []chain.Tuple) {
		return chain.UlamCostChain(tuples, len(s), len(sbar), ops)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, Report: cl.Report(), Chain: picked}, nil
}

// hitConst is the constant in the hitting-set rate theta =
// hitConst·log(n)/(eps'·B) of Algorithm 1 (line 12). The paper uses 8; 4
// keeps simulator-scale candidate sets manageable at a small
// failure-probability cost.
const hitConst = 4

// runUlamRound1 is Algorithm 1: build candidate substrings for the block
// and emit one batch holding a tuple with the Ulam distance for each.
//
// It walks the candidate grids three times. The first walk counts the
// visits, so that the second can collect every visited window into one
// slice of that size (grown by append instead, the slice would double the
// machine's allocation); sorted and compacted, the slice is the table of
// distinct windows, and each start's windows are priced together by one
// DP (ulam.Pricer.WindowDists). The third walk repeats the visits in the
// same order and keeps each window the first time its distance passes the
// scale filter, so the kept set and its order depend only on the grids.
// The machine allocates its pricing buffers and its table once.
func runUlamRound1(x *mpc.Ctx, job *ulamJob, n int, epsP float64) {
	blen := job.R - job.L + 1
	d0, win := ulam.LocalPairs(blen, job.Pairs, job.SbarLen, x.Counter())
	// The hitting set I (line 12) is sampled once; it does not depend on
	// the distance guess u.
	theta := hitConst * math.Log(float64(n)+2) / (epsP * float64(blen))
	g := ulamGrids{blen: blen, m: job.SbarLen, epsP: epsP, win: win,
		anchors: sampleAnchors(x.Rand(), job.Pairs, theta)}

	visits := 0
	g.each(func(_, _, _ int) { visits++ })
	keys := make([]uint64, 0, visits)
	g.each(func(sp, ep, _ int) { keys = append(keys, windowKey(sp, ep)) })
	wins := newWindowTable(keys, ulam.NewPricer(blen, job.Pairs), x.Counter())

	// Every kept window gets its position in the kept list, counting from
	// 1; 0 marks a window not kept.
	kept := 0
	if win.Len() > 0 {
		// Line 2-3 (and the u = 0 special case): the local Ulam optimum
		// itself is always a valid tuple.
		kept++
		if i, ok := wins.find(win.Gamma, win.Kappa); ok {
			wins.pos[i] = int32(kept)
		}
	}
	// A candidate is kept if its distance is consistent with the current
	// guess u: the approximately-optimal candidate at the true scale has
	// distance <= (1+2eps')·u-hat (Lemma 3), so candidates far above the
	// scale are junk for this u and may be produced again (and kept) at
	// their own scale.
	g.each(func(sp, ep, uh int) {
		i, _ := wins.find(sp, ep)
		if wins.pos[i] == 0 && float64(wins.d[i]) <= (1+3*epsP)*float64(uh) {
			kept++
			wins.pos[i] = int32(kept)
		}
	})
	cands := make([]ulamCand, kept)
	for i, at := range wins.pos {
		if at > 0 {
			cands[at-1] = ulamCand{int(wins.keys[i] >> 32), int(uint32(wins.keys[i])), int(wins.d[i])}
		}
	}
	if win.Len() > 0 {
		cands[0] = ulamCand{win.Gamma, win.Kappa, d0} // lulam's distance, not the table's
	}
	priced := len(wins.keys)
	wins = windowTable{} // the pruning needs only cands
	pruneOps := pruneDominated(cands)
	x.Ops(int64(priced) + pruneOps/8)
	cands = slices.DeleteFunc(cands, func(c ulamCand) bool { return c.d < 0 })
	batch := make([]chain.Tuple, len(cands))
	for i, c := range cands {
		batch[i] = chain.Tuple{L: job.L, R: job.R, G: c.sp, K: c.ep, D: c.d}
	}
	SendTuples(x, batch)
}

// sampleAnchors draws the hitting set I: each match pair (P, Q)
// independently with probability theta, anchoring the window
// [gamma, gamma+blen-1] with gamma = Q-P that aligns the block to sbar
// through that pair. It returns the anchors' gammas, each once, in the
// order of their first draw: pairs on one diagonal anchor one window.
//
// Dropping the repeats changes no output. A repeated anchor's grid is the
// same grid, so the grid walks collect the same windows; and at the same
// guess it revisits only windows its first walk already kept, or already
// rejected at the same u-hat.
func sampleAnchors(rng *rand.Rand, pairs []ulam.Pair, theta float64) []int {
	var gammas []int
	for _, pr := range pairs {
		if rng.Float64() < theta {
			if gamma := pr.Q - pr.P; !slices.Contains(gammas, gamma) {
				gammas = append(gammas, gamma)
			}
		}
	}
	return gammas
}

// ulamGrids is one block's candidate construction (Lemmas 1 and 2): for
// every distance guess, a grid of windows around the local Ulam window or
// around each sampled anchor.
type ulamGrids struct {
	blen, m int // block length and |sbar|
	epsP    float64
	win     ulam.Window // the local Ulam window
	anchors []int       // the anchors' gammas (sampleAnchors)
}

// each calls visit(sp, ep, uh) for every candidate window, clamped to
// sbar, with the paper's u-hat of the guess that produced it, always in
// the same order. A window may be visited many times.
func (g ulamGrids) each(visit func(sp, ep, uh int)) {
	if g.m == 0 {
		return
	}
	// Distance guesses u = (1+eps')^j. Guesses above B/eps' are dropped:
	// by the same argument as the length cap of Fig. 5, windows longer
	// than B/eps' can be truncated, pushing pure insertions into the
	// chain gaps at a 1+O(eps') loss.
	uMax := int(float64(g.blen)/g.epsP) + 1
	for _, u := range Ladder(g.epsP, uMax) {
		uh := int(float64(u)*(1+g.epsP)) + 1 // the paper's u-hat
		gap := max(int(g.epsP*float64(u)), 1)
		grid := func(gamma, kappa, r int) {
			for sp := gamma - r - mod(gamma-r, gap); sp <= gamma+r; sp += gap {
				for ep := kappa - r - mod(kappa-r, gap); ep <= kappa+r; ep += gap {
					if s, e := max(sp, 0), min(ep, g.m-1); s <= e {
						visit(s, e, uh)
					}
				}
			}
		}
		if u < (g.blen+1)/2 {
			// Small-distance branch (Lemma 1): grid around the local
			// Ulam window.
			if g.win.Len() > 0 {
				grid(g.win.Gamma, g.win.Kappa, 2*uh)
			}
		} else {
			// Large-distance branch (Lemma 2): grids around sampled
			// anchors.
			for _, gamma := range g.anchors {
				grid(gamma, gamma+g.blen-1, uh)
			}
		}
	}
}

func windowKey(sp, ep int) uint64 { return uint64(sp)<<32 | uint64(ep) }

// windowTable holds a block's distinct candidate windows, keyed by
// windowKey in ascending order, which groups them by start, with each
// window's distance and its position in the kept list (0 if not kept).
type windowTable struct {
	keys []uint64
	d    []int32
	pos  []int32
}

// newWindowTable sorts and compacts keys, which it takes over as the
// table, and prices every window with one WindowDists call per distinct
// start.
func newWindowTable(keys []uint64, pr *ulam.Pricer, ops *stats.Ops) windowTable {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	t := windowTable{keys: keys, d: make([]int32, len(keys)), pos: make([]int32, len(keys))}
	var ends []int
	for lo := 0; lo < len(keys); {
		sp := keys[lo] >> 32
		hi := lo
		ends = ends[:0]
		for ; hi < len(keys) && keys[hi]>>32 == sp; hi++ {
			ends = append(ends, int(uint32(keys[hi])))
		}
		for k, d := range pr.WindowDists(int(sp), ends, ops) {
			t.d[lo+k] = int32(d)
		}
		lo = hi
	}
	return t
}

// find returns the index of the window in the table and whether it is
// there.
func (t *windowTable) find(sp, ep int) (int, bool) {
	return slices.BinarySearch(t.keys, windowKey(sp, ep))
}

// ulamCand is a kept candidate; d < 0 marks it dominated.
type ulamCand struct{ sp, ep, d int }

// pruneDominated marks shrink-dominated candidates and returns the number
// of candidate pairs it visited. Candidate A = (sp, ep, d) is redundant when some B =
// (sp', ep', d') with sp' >= sp, ep' <= ep satisfies d' + (sp'-sp) +
// (ep-ep') <= d, because B can replace A in any chain of Algorithm 2
// without increasing its cost (the window only shrinks, so chain validity
// is preserved, and each max-gap grows by at most the shrinkage). This
// trims the Õ_eps(1) per-block constant without touching the coverage
// guarantee of Lemma 3.
func pruneDominated(kept []ulamCand) int64 {
	var pruneOps int64
	for a := range kept {
		for b := range kept {
			if a == b || kept[a].d < 0 {
				continue
			}
			A, B := kept[a], kept[b]
			if B.d < 0 || B.sp < A.sp || B.ep > A.ep {
				continue
			}
			if B.sp == A.sp && B.ep == A.ep && b > a {
				continue // identical windows cannot both prune each other
			}
			if B.d+(B.sp-A.sp)+(A.ep-B.ep) <= A.d {
				kept[a].d = -1 // mark dominated
			}
		}
		pruneOps += int64(len(kept))
	}
	return pruneOps
}

func mod(v, m int) int {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}
