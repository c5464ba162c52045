package core

import (
	"slices"

	"mpcdist/internal/approx"
	"mpcdist/internal/cand"
	"mpcdist/internal/editdist"
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

// pairDistances prices the ladder of windows opening at gamma against the
// job's block, with the kernel chosen by p.Solver. The default exact
// kernel scores every ladder end in one bit-parallel pass (the ends are
// prefixes of the longest window).
func pairDistances(job *editJob, gamma int, kappas, prefixes []int, dFilter int, p Params, x *mpc.Ctx) []int {
	maxKappa := kappas[len(kappas)-1]
	for _, k := range kappas {
		if k > maxKappa {
			maxKappa = k
		}
	}
	full := job.Seg[gamma-job.SegOff : maxKappa-job.SegOff+1]
	switch p.Solver {
	case PairApprox12:
		ds := make([]int, len(kappas))
		for i, plen := range prefixes {
			win := full[:plen]
			ds[i] = approx.Ed(job.Block, win, approx.Params{
				Eps:  p.Eps / 4,
				Cap:  min(dFilter, len(job.Block)+plen),
				Seed: p.Seed ^ int64(x.Machine)<<20 ^ int64(gamma),
			}, x.Counter())
		}
		return ds
	default: // PairHybridExact
		return editdist.MyersMulti(job.Block, full, prefixes, x.Counter())
	}
}

// editSmall runs the two-round small-distance algorithm (Lemma 6) for a
// fixed distance guess g, returning the chain value and the cluster report.
// The approximation factor is 1+eps with the default exact pair kernel, or
// 3+eps with the [12]-substitute (PairApprox12).
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
		// One ends buffer, filtered in place into the kappas, and one
		// prefixes buffer serve every start of the machine.
		var kappas, prefixes []int
		for _, pl := range in {
			job := pl.(*editJob)
			for _, gamma := range job.Starts {
				kappas = cand.AppendEnds(kappas[:0], gamma, len(job.Block), m, gr.EpsP, job.MaxWin, job.Guess)
				// Ends outside this machine's segment are not its to price.
				kappas = slices.DeleteFunc(kappas, func(kappa int) bool { return kappa-job.SegOff >= len(job.Seg) })
				if len(kappas) == 0 {
					continue
				}
				prefixes = prefixes[:0]
				for _, kappa := range kappas {
					prefixes = append(prefixes, kappa-gamma+1)
				}
				ds := pairDistances(job, gamma, kappas, prefixes, dFilter, p, x)
				SendWindows(x, job.L, job.R, gamma, kappas, ds, dFilter)
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
