package baseline

import (
	"bytes"

	"mpcdist/internal/chain"
	"mpcdist/internal/core"
	"mpcdist/internal/lcs"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
)

// LCSMPC approximates the longest common subsequence in two MPC rounds —
// the LCS counterpart of the block/candidate scheme that Hajiaghayi,
// Seddighin, and Sun pair with their edit-distance algorithm ([20] covers
// both problems; the paper frames LCS as edit distance's dual).
//
// Construction (an *extension* of this repository, documented in
// DESIGN.md): guesses ell of the LCS are tried in descending order. For a
// guess, s is cut into n^x blocks and candidate windows of sbar start and
// end on a grid of pitch eps'·ell/n^x (so at most 2·eps'·ell matches are
// lost across all blocks) with window length capped at B/eps' (blocks
// whose optimal window is longer lose at most eps'·|sbar| matches in
// total). Each machine scores one block against a run of windows with
// Hunt-Szymanski; a single machine then runs the maximizing chain DP.
//
// The returned value is always achievable (a true common subsequence
// length, hence a lower bound on the LCS), and is within 1+O(eps) of the
// LCS whenever the strings are similar (LCS = Omega(|sbar|)) — the regime
// where near-duplicate detection operates. Rounds per guess: 2.
func LCSMPC(s, sbar []byte, p core.Params) (core.Result, error) {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = "lcs-mpc"
	}
	n, m := len(s), len(sbar)
	N := max(n, m)
	if N == 0 {
		return core.Result{Value: 0, Regime: "equal"}, nil
	}
	if err := core.CheckParams(p.X, p.Eps, core.MaxXHalf); err != nil {
		return core.Result{}, err
	}
	if n == m && bytes.Equal(s, sbar) {
		return core.Result{Value: n, Regime: "equal"}, nil
	}
	best := 0
	var reports []mpc.Report
	ell := min(n, m)
	for ell >= 1 {
		v, rep, err := lcsGuess(s, sbar, ell, p)
		if err != nil {
			return core.Result{}, err
		}
		reports = append(reports, rep)
		if v > best {
			best = v
		}
		// Once the guess has fallen to (1+eps)·best, the true LCS is below
		// (1+eps)²·best: a larger LCS would have been covered by an earlier
		// guess within 1+eps of it.
		if float64(ell) <= (1+p.Eps)*float64(best) || ell == 1 {
			return core.Result{
				Value:        best,
				Guess:        ell,
				Regime:       "lcs",
				Report:       core.AggregateReports(reports),
				GuessReports: reports,
			}, nil
		}
		next := int(float64(ell) / (1 + p.Eps))
		if next >= ell {
			next = ell - 1
		}
		ell = next
	}
	return core.Result{Value: best, Report: core.AggregateReports(reports), GuessReports: reports}, nil
}

// lcsJob is one machine's work: a block and a run of window starts.
type lcsJob struct {
	L, R   int
	Block  []byte
	SegOff int
	Seg    []byte
	Starts []int
	Grid   int
	MaxWin int
}

// Words implements mpc.Payload.
func (j *lcsJob) Words() int {
	return 7 + len(j.Starts) + (len(j.Block)+7)/8 + (len(j.Seg)+7)/8
}

func lcsGuess(s, sbar []byte, ell int, p core.Params) (int, mpc.Report, error) {
	n, m := len(s), len(sbar)
	cl := p.Cluster(max(n, m))
	gr := p.Grid(n, m, ell)
	// Every block gets the same global grid of window starts.
	var starts []int
	for g := 0; g < m; g += gr.Pitch {
		starts = append(starts, g)
	}
	inputs := gr.Jobs(p.Algo, "lcs/partition", s, sbar,
		func(int) []int { return starts },
		func(r core.Run) mpc.Payload {
			return &lcsJob{L: r.L, R: r.R, Block: r.Block, SegOff: r.SegOff, Seg: r.Seg,
				Starts: r.Starts, Grid: gr.Pitch, MaxWin: gr.MaxWin}
		})
	if len(inputs) == 0 {
		return 0, cl.Report(), nil
	}

	out, err := cl.Run("lcs/pairs", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		for _, pl := range in {
			job := pl.(*lcsJob)
			for _, gamma := range job.Starts {
				// Window ends on the grid too (kappa = end of a grid cell),
				// so shrinking an optimal window to grid-aligned endpoints
				// loses at most one cell of matches per side.
				var batch []chain.Tuple
				for kappa := gamma + job.Grid - 1; kappa-gamma+1 <= job.MaxWin; kappa += job.Grid {
					if kappa > m-1 {
						break
					}
					if kappa-job.SegOff >= len(job.Seg) {
						break
					}
					win := job.Seg[gamma-job.SegOff : kappa-job.SegOff+1]
					score := lcs.HuntSzymanski(job.Block, win, x.Counter())
					if score == 0 {
						continue
					}
					batch = append(batch, chain.Tuple{L: job.L, R: job.R, G: gamma, K: kappa, D: score})
				}
				core.SendTuples(x, batch)
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	v, _, err := core.ChainRound(cl, "lcs/chain", out, func(tuples []chain.Tuple, ops *stats.Ops) (int, []chain.Tuple) {
		return chain.LCSScore(tuples, ops), nil
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	return v, cl.Report(), nil
}
