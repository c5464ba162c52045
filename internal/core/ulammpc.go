package core

import (
	"fmt"
	"math"

	"mpcdist/internal/chain"
	"mpcdist/internal/mpc"
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

// tupleMsg carries one chain tuple to the phase-2 machine.
type tupleMsg chain.Tuple

// Words implements mpc.Payload.
func (tupleMsg) Words() int { return 5 }

// valueMsg carries the final answer.
type valueMsg int

// Words implements mpc.Payload.
func (valueMsg) Words() int { return 1 }

// chainMsg carries one selected tuple of the final chain back to the
// driver.
type chainMsg chain.Tuple

// Words implements mpc.Payload.
func (chainMsg) Words() int { return 5 }

// UlamMPC approximates ulam(s, sbar) within 1+eps with high probability in
// two MPC rounds (Theorem 4). Both inputs must have distinct characters.
// It requires 0 < X < 1/2.
func UlamMPC(s, sbar []int, p Params) (Result, error) {
	p = p.withDefaults()
	if p.Algo == "" {
		p.Algo = "ulam-mpc"
	}
	n := maxInt(len(s), len(sbar))
	if err := p.validate(n, 0.5); err != nil {
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
	cl := p.cluster(n)

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
			r := minInt(l+bsz-1, len(s)-1)
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
	collector := 0
	out, err := cl.Run("ulam/candidates", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		for _, pl := range in {
			job := pl.(*ulamJob)
			runUlamRound1(x, job, n, epsP, p.HitConst, collector)
		}
	})
	if err != nil {
		return Result{}, err
	}
	if _, ok := out[collector]; !ok {
		// No candidates anywhere (e.g. disjoint alphabets): the chain
		// machine still runs and reports the trivial transformation.
		out[collector] = []mpc.Payload{}
	}

	// Round 2: Algorithm 2 on a single machine. Alongside the value, the
	// machine ships back the selected chain — the approximate decomposition
	// of s into matched windows of sbar.
	fin, err := cl.Run("ulam/chain", trace.PhaseChain, out, func(x *mpc.Ctx, in []mpc.Payload) {
		tuples := make([]chain.Tuple, 0, len(in))
		for _, pl := range in {
			tuples = append(tuples, chain.Tuple(pl.(tupleMsg)))
		}
		v, picked := chain.UlamCostChain(tuples, len(s), len(sbar), x.Counter())
		x.Send(collector, valueMsg(v))
		for _, t := range picked {
			x.Send(collector, chainMsg(t))
		}
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Report: cl.Report()}
	found := false
	for _, pl := range fin[collector] {
		switch v := pl.(type) {
		case valueMsg:
			res.Value = int(v)
			found = true
		case chainMsg:
			res.Chain = append(res.Chain, chain.Tuple(v))
		}
	}
	if !found {
		return Result{}, fmt.Errorf("core: ulam chain produced no value")
	}
	return res, nil
}

// runUlamRound1 is Algorithm 1: build candidate substrings for the block
// and emit a tuple with the Ulam distance for each.
func runUlamRound1(x *mpc.Ctx, job *ulamJob, n int, epsP, hitConst float64, collector int) {
	blen := job.R - job.L + 1
	m := job.SbarLen
	d0, win := ulam.LocalPairs(blen, job.Pairs, m, x.Counter())
	dists := make(map[[2]int]int)
	emitted := make(map[[2]int]bool)
	type cand struct{ sp, ep, d int }
	var kept []cand
	emit := func(sp, ep, d int) {
		key := [2]int{sp, ep}
		if emitted[key] {
			return
		}
		emitted[key] = true
		kept = append(kept, cand{sp, ep, d})
	}
	// addCand evaluates the candidate and emits it if its distance is
	// consistent with the current guess u: the approximately-optimal
	// candidate at the true scale has distance <= (1+2eps')·u-hat
	// (Lemma 3), so candidates far above the scale are junk for this u
	// and may be produced again (and kept) at their own scale.
	addCand := func(sp, ep, uh int) {
		if sp < 0 {
			sp = 0
		}
		if ep > m-1 {
			ep = m - 1
		}
		if sp > ep || m == 0 {
			return
		}
		key := [2]int{sp, ep}
		d, ok := dists[key]
		if !ok {
			d = ulam.WindowDist(blen, job.Pairs, sp, ep, x.Counter())
			dists[key] = d
		}
		if float64(d) <= (1+3*epsP)*float64(uh) {
			emit(sp, ep, d)
		}
	}

	if win.Len() > 0 {
		// Line 2-3 (and the u = 0 special case): the local Ulam optimum
		// itself is always a valid tuple.
		emit(win.Gamma, win.Kappa, d0)
	}

	// The hitting set I (line 12) is sampled once; it does not depend on
	// the distance guess u.
	theta := hitConst * math.Log(float64(n)+2) / (epsP * float64(blen))
	rng := x.Rand()
	type anchor struct{ gamma, kappa int }
	var anchors []anchor
	for _, pr := range job.Pairs {
		if rng.Float64() < theta {
			anchors = append(anchors, anchor{
				gamma: pr.Q - pr.P,
				kappa: pr.Q + (blen - 1 - pr.P),
			})
		}
	}

	// Distance guesses u = (1+eps')^j. Guesses above B/eps' are dropped:
	// by the same argument as the length cap of Fig. 5, windows longer
	// than B/eps' can be truncated, pushing pure insertions into the
	// chain gaps at a 1+O(eps') loss.
	uMax := int(float64(blen)/epsP) + 1
	for _, u := range Ladder(epsP, uMax) {
		uh := int(float64(u)*(1+epsP)) + 1 // the paper's u-hat
		gap := maxInt(int(epsP*float64(u)), 1)
		round := func(v int) int { return v - mod(v, gap) }
		if u < (blen+1)/2 {
			// Small-distance branch (Lemma 1): grid around the local
			// Ulam window.
			if win.Len() == 0 {
				continue
			}
			for sp := round(win.Gamma - 2*uh); sp <= win.Gamma+2*uh; sp += gap {
				for ep := round(win.Kappa - 2*uh); ep <= win.Kappa+2*uh; ep += gap {
					addCand(sp, ep, uh)
				}
			}
		} else {
			// Large-distance branch (Lemma 2): grids around sampled
			// anchors.
			for _, an := range anchors {
				for sp := round(an.gamma - uh); sp <= an.gamma+uh; sp += gap {
					for ep := round(an.kappa - uh); ep <= an.kappa+uh; ep += gap {
						addCand(sp, ep, uh)
					}
				}
			}
		}
	}
	// Shrink-domination pruning before emission: candidate A = (sp, ep, d)
	// is redundant when some B = (sp', ep', d') with sp' >= sp, ep' <= ep
	// satisfies d' + (sp'-sp) + (ep-ep') <= d, because B can replace A in
	// any chain of Algorithm 2 without increasing its cost (the window only
	// shrinks, so chain validity is preserved, and each max-gap grows by at
	// most the shrinkage). This trims the Õ_eps(1) per-block constant
	// without touching the coverage guarantee of Lemma 3.
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
	x.Ops(int64(len(dists)) + pruneOps/8)
	for _, c := range kept {
		if c.d >= 0 {
			x.Send(collector, tupleMsg(chain.Tuple{L: job.L, R: job.R, G: c.sp, K: c.ep, D: c.d}))
		}
	}
}

func mod(v, m int) int {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}
