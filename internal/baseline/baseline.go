// Package baseline implements the comparison algorithms of the paper's
// Table 1: the 1+eps, two-round MPC edit-distance algorithm of Hajiaghayi,
// Seddighin, and Sun [20] — which assigns every (block, candidate
// substring) pair to its own machine and therefore uses Õ(n^{2x}) machines
// where the paper's algorithm needs Õ(n^{2x-(1-delta)}) in the small
// regime — and the LCS extension of the same block/candidate scheme. Both
// run the pipeline shape of internal/core: core's block grid, chain
// tuples sent to core's collector, and core's chain round.
package baseline

import (
	"bytes"

	"mpcdist/internal/cand"
	"mpcdist/internal/core"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// pairJob is one (block, starting point) work unit: the defining difference
// from the paper's algorithm is that no packing of several starts onto one
// machine happens here.
type pairJob struct {
	L, R   int
	Block  []byte
	SegOff int
	Seg    []byte
	Start  int
	Guess  int
	MaxWin int
}

// Words implements mpc.Payload.
func (j *pairJob) Words() int {
	return 7 + (len(j.Block)+7)/8 + (len(j.Seg)+7)/8
}

// HSSEditMPC approximates ed(s, sbar) within 1+eps in two rounds per
// distance guess, using one machine per (block, candidate starting point)
// as in [20]. Its machines price their start with core's StartPricer, as
// the paper algorithm's small regime does, so that machine and work counts
// are directly comparable.
func HSSEditMPC(s, sbar []byte, p core.Params) (core.Result, error) {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = "edit-hss"
	}
	n, m := len(s), len(sbar)
	if max(n, m) == 0 {
		return core.Result{Value: 0, Regime: "equal"}, nil
	}
	if err := core.CheckParams(p.X, p.Eps, core.MaxXHalf); err != nil {
		return core.Result{}, err
	}
	if n == m && bytes.Equal(s, sbar) {
		return core.Result{Value: 0, Regime: "equal"}, nil
	}
	best := n + m
	var reports []mpc.Report
	for _, g := range core.Ladder(p.Eps, n+m) {
		v, rep, err := hssGuess(s, sbar, g, p)
		if err != nil {
			return core.Result{}, err
		}
		reports = append(reports, rep)
		if v < best {
			best = v
		}
		if float64(v) <= (1+p.Eps)*float64(g) || g >= n+m {
			return core.Result{
				Value:        best,
				Guess:        g,
				Regime:       "hss",
				Report:       core.AggregateReports(reports),
				GuessReports: reports,
			}, nil
		}
	}
	return core.Result{Value: best, Report: core.AggregateReports(reports), GuessReports: reports}, nil
}

func hssGuess(s, sbar []byte, g int, p core.Params) (int, mpc.Report, error) {
	n, m := len(s), len(sbar)
	cl := p.Cluster(max(n, m))
	gr := p.Grid(n, m, g)
	gr.Eta = 1 // [20]: one machine per (block, starting point)
	inputs := gr.Jobs(p.Algo, "hss/partition", s, sbar,
		func(l int) []int { return cand.Starts(l, g, gr.Pitch, m) },
		func(r core.Run) mpc.Payload {
			return &pairJob{L: r.L, R: r.R, Block: r.Block, SegOff: r.SegOff, Seg: r.Seg,
				Start: r.Starts[0], Guess: g, MaxWin: gr.MaxWin}
		})
	if len(inputs) == 0 {
		return n + m, cl.Report(), nil
	}
	dFilter := int((1 + p.Eps) * float64(g))

	out, err := cl.Run("hss/pairs", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		pr := gr.Pricer(m, g, dFilter)
		for _, pl := range in {
			job := pl.(*pairJob)
			pr.Price(x, job.L, job.Block, job.SegOff, job.Seg, job.Start)
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	v, _, err := core.ChainRound(cl, "hss/chain", out, core.EditChain(n, m, false))
	if err != nil {
		return 0, mpc.Report{}, err
	}
	return v, cl.Report(), nil
}
