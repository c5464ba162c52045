package core

import (
	"mpcdist/internal/cand"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// editJob is a round-1 payload for the small-distance regime: one block of
// s plus a run of consecutive candidate starting points, with the segment
// of sbar that covers every window those starts can open (Section 5.1.1:
// "we give several candidate substrings of each block to a machine").
type editJob struct {
	L, R   int    // block interval in s
	Block  []byte // s[L..R]
	SegOff int    // offset of Seg within sbar
	Seg    []byte // sbar[SegOff .. SegOff+len(Seg)-1]
	Starts []int  // absolute candidate starting points in sbar
	Guess  int    // the distance guess n^delta
	MaxWin int    // window length cap (1/eps')·B
}

// Words implements mpc.Payload.
func (j *editJob) Words() int {
	return 7 + len(j.Starts) + (len(j.Block)+7)/8 + (len(j.Seg)+7)/8
}

// editSmall runs the two-round small-distance algorithm (Lemma 6) for a
// fixed distance guess g, returning the chain value and the cluster report.
// Round 1 prices every (block, window) pair exactly with a StartPricer;
// Algorithm 3 runs the [12] solver there only to keep total work
// subquadratic (DESIGN.md, substitution 2). Exact distances make the
// regime a 1+eps scheme.
func editSmall(s, sbar []byte, g int, p Params) (int, mpc.Report, error) {
	n, m := len(s), len(sbar)
	cl := p.Cluster(max(n, m))
	gr := p.Grid(n, m, g)
	inputs := gr.Jobs(p.Algo, "edit/small/partition", s, sbar,
		func(l int) []int { return cand.Starts(l, g, gr.Pitch, m) },
		func(r Run) mpc.Payload {
			return &editJob{L: r.L, R: r.R, Block: r.Block, SegOff: r.SegOff, Seg: r.Seg,
				Starts: r.Starts, Guess: g, MaxWin: gr.MaxWin}
		})
	if len(inputs) == 0 {
		// No blocks (empty s) or no starts (empty sbar): trivial answer.
		return n + m, cl.Report(), nil
	}

	dFilter := int((3 + p.Eps) * float64(g))

	out, err := cl.Run("edit-small/pairs", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		pr := gr.Pricer(m, g, dFilter)
		for _, pl := range in {
			job := pl.(*editJob)
			for _, gamma := range job.Starts {
				pr.Price(x, job.L, job.Block, job.SegOff, job.Seg, gamma)
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}

	// Round 2: Algorithm 4 on one machine.
	v, _, err := ChainRound(cl, "edit-small/chain", out, EditChain(n, m, false))
	if err != nil {
		return 0, mpc.Report{}, err
	}
	return v, cl.Report(), nil
}
