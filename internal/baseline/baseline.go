// Package baseline implements the comparison algorithms of the paper's
// Table 1: the 1+eps, two-round MPC edit-distance algorithm of Hajiaghayi,
// Seddighin, and Sun [20] — which assigns every (block, candidate
// substring) pair to its own machine and therefore uses Õ(n^{2x}) machines
// where the paper's algorithm needs Õ(n^{2x-(1-delta)}) in the small
// regime — plus the sequential oracles used to certify approximation
// factors.
package baseline

import (
	"bytes"
	"fmt"
	"math"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/core"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
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

type tupleMsg chain.Tuple

// Words implements mpc.Payload.
func (tupleMsg) Words() int { return 5 }

type valueMsg int

// Words implements mpc.Payload.
func (valueMsg) Words() int { return 1 }

// HSSEditMPC approximates ed(s, sbar) within 1+eps in two rounds per
// distance guess, using one machine per (block, candidate starting point)
// as in [20]. Exact pair distances use the same hybrid kernel as the
// paper-algorithm implementation so that machine and work counts are
// directly comparable.
func HSSEditMPC(s, sbar []byte, p core.Params) (core.Result, error) {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = "edit-hss"
	}
	n, m := len(s), len(sbar)
	N := n
	if m > N {
		N = m
	}
	if N == 0 {
		return core.Result{Value: 0, Regime: "equal"}, nil
	}
	if p.X <= 0 || p.X >= 0.5 {
		return core.Result{}, fmt.Errorf("baseline: X = %v outside (0, 1/2)", p.X)
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
	N := n
	if m > N {
		N = m
	}
	cl := p.Cluster(N)
	epsP := p.Eps / 4
	bsz := int(math.Round(math.Pow(float64(N), 1-p.X)))
	if bsz < 1 {
		bsz = 1
	}
	nBlocks := (n + bsz - 1) / bsz
	grid := int(epsP * float64(g) / float64(maxInt(nBlocks, 1)))
	if grid < 1 {
		grid = 1
	}
	maxWin := int(float64(bsz)/epsP) + 1

	inputs := make(map[int][]mpc.Payload)
	id := 0
	for l := 0; l < n; l += bsz {
		r := l + bsz - 1
		if r > n-1 {
			r = n - 1
		}
		for _, start := range cand.Starts(l, g, grid, m) {
			segHi := start + maxWin
			if segHi > m {
				segHi = m
			}
			inputs[id] = []mpc.Payload{&pairJob{
				L: l, R: r,
				Block:  s[l : r+1],
				SegOff: start,
				Seg:    sbar[start:segHi],
				Start:  start,
				Guess:  g,
				MaxWin: maxWin,
			}}
			id++
		}
	}
	collector := 0
	if len(inputs) == 0 {
		return n + m, cl.Report(), nil
	}
	dFilter := int((1 + p.Eps) * float64(g))

	out, err := cl.Run("hss/pairs", trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		for _, pl := range in {
			job := pl.(*pairJob)
			blen := len(job.Block)
			gamma := job.Start
			var kappas, prefixes []int
			for _, kappa := range cand.Ends(gamma, blen, m, epsP, job.MaxWin, job.Guess) {
				if kappa-job.SegOff >= len(job.Seg) {
					continue
				}
				kappas = append(kappas, kappa)
				prefixes = append(prefixes, kappa-gamma+1)
			}
			if len(kappas) == 0 {
				continue
			}
			// Same batched exact kernel as the core small regime, so work
			// counts are directly comparable.
			ds := editdist.MyersMulti(job.Block, job.Seg[gamma-job.SegOff:], prefixes, x.Counter())
			for i, kappa := range kappas {
				if ds[i] > dFilter || ds[i] > blen+prefixes[i] {
					continue
				}
				x.Send(collector, tupleMsg(chain.Tuple{L: job.L, R: job.R, G: gamma, K: kappa, D: ds[i]}))
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	if _, ok := out[collector]; !ok {
		out[collector] = []mpc.Payload{}
	}
	fin, err := cl.Run("hss/chain", trace.PhaseChain, out, func(x *mpc.Ctx, in []mpc.Payload) {
		tuples := make([]chain.Tuple, 0, len(in))
		for _, pl := range in {
			tuples = append(tuples, chain.Tuple(pl.(tupleMsg)))
		}
		x.Send(collector, valueMsg(chain.EditCost(tuples, n, m, false, x.Counter())))
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	vals := fin[collector]
	if len(vals) != 1 {
		return 0, mpc.Report{}, fmt.Errorf("baseline: chain produced %d values", len(vals))
	}
	return int(vals[0].(valueMsg)), cl.Report(), nil
}

// SequentialExact is the classic quadratic DP, the oracle all MPC values
// are certified against.
func SequentialExact(s, sbar []byte, ops *stats.Ops) int {
	return editdist.Distance(s, sbar, ops)
}

// SequentialMyers is the bit-parallel exact algorithm.
func SequentialMyers(s, sbar []byte, ops *stats.Ops) int {
	return editdist.Myers(s, sbar, ops)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
