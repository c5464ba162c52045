package core

import (
	"bytes"
	"fmt"
	"math"

	"mpcdist/internal/mpc"
)

// EditMPC approximates ed(s, sbar) within 3+eps (1+eps with ExactPairs) in
// at most four MPC rounds per distance guess (Theorem 9). Requires
// 0 < X <= 5/17.
//
// Distance guesses n^delta = (1+eps)^i are, in the paper, all run in
// parallel, with the smallest valid guess winning; the simulator runs them
// in ascending order and stops at the first acceptance (the same winner),
// reporting per-guess statistics and a parallel-style aggregate (rounds =
// max, machines and work = sum).
func EditMPC(s, sbar []byte, p Params) (Result, error) {
	p = p.withDefaults()
	if p.Algo == "" {
		p.Algo = "edit-mpc"
	}
	n, m := len(s), len(sbar)
	N := maxInt(n, m)
	if N == 0 {
		return Result{Value: 0, Regime: "equal"}, nil
	}
	if err := p.validate(N, 5.0/17+1e-9); err != nil {
		return Result{}, err
	}
	// ed = 0 is detected separately, as in the paper.
	if n == m && bytes.Equal(s, sbar) {
		return Result{Value: 0, Regime: "equal"}, nil
	}

	cutover := math.Pow(float64(N), 1-p.X/5)
	acceptFor := func(regime string) float64 {
		if regime == "small" && p.Solver != PairApprox12 {
			// Exact pair distances make the small regime a 1+eps scheme.
			return 1 + p.Eps
		}
		return 3 + p.Eps
	}

	best := n + m
	var reports []mpc.Report
	for _, g := range Ladder(p.Eps, n+m) {
		var (
			v      int
			rep    mpc.Report
			regime string
			err    error
		)
		if float64(g) <= cutover {
			regime = "small"
			v, rep, err = editSmall(s, sbar, g, p)
		} else {
			regime = "large"
			v, rep, err = editLarge(s, sbar, g, p)
		}
		if err != nil {
			return Result{}, err
		}
		reports = append(reports, rep)
		if v < best {
			best = v
		}
		if float64(v) <= acceptFor(regime)*float64(g) || g >= n+m {
			return Result{
				Value:        best,
				Guess:        g,
				Regime:       regime,
				Report:       aggregateReports(reports),
				GuessReports: reports,
			}, nil
		}
	}
	// Unreachable: the last ladder guess always accepts.
	return Result{Value: best, Report: aggregateReports(reports), GuessReports: reports}, nil
}

// EditSmallMPC exposes the small-distance regime (Lemma 6) for a fixed
// guess, for tests and benchmarks.
func EditSmallMPC(s, sbar []byte, guess int, p Params) (Result, error) {
	p = p.withDefaults()
	N := maxInt(len(s), len(sbar))
	if err := p.validate(N, 5.0/17+1e-9); err != nil {
		return Result{}, err
	}
	v, rep, err := editSmall(s, sbar, guess, p)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, Guess: guess, Regime: "small", Report: rep}, nil
}

// EditLargeMPC exposes the large-distance regime (Lemma 8) for a fixed
// guess, for tests and benchmarks. The guess must be at least n^{1-x/5},
// the regime's validity boundary (Section 5.2): below it the candidate
// grid becomes so fine that the machinery exceeds the model's memory.
func EditLargeMPC(s, sbar []byte, guess int, p Params) (Result, error) {
	p = p.withDefaults()
	N := maxInt(len(s), len(sbar))
	if err := p.validate(N, 5.0/17+1e-9); err != nil {
		return Result{}, err
	}
	if float64(guess) < math.Pow(float64(N), 1-p.X/5) {
		return Result{}, fmt.Errorf("core: large-distance regime requires guess >= n^(1-x/5) = %.0f, got %d",
			math.Pow(float64(N), 1-p.X/5), guess)
	}
	v, rep, err := editLarge(s, sbar, guess, p)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, Guess: guess, Regime: "large", Report: rep}, nil
}

// aggregateReports combines per-guess reports the way the paper's parallel
// guessing would: rounds is the maximum, machines and total work add up,
// and the critical path is the maximum.
func aggregateReports(reps []mpc.Report) mpc.Report {
	var out mpc.Report
	for _, r := range reps {
		if r.NumRounds > out.NumRounds {
			out.NumRounds = r.NumRounds
		}
		out.MaxMachines += r.MaxMachines
		if r.MaxWords > out.MaxWords {
			out.MaxWords = r.MaxWords
		}
		out.TotalOps += r.TotalOps
		out.CommWords += r.CommWords
		if r.CriticalOps > out.CriticalOps {
			out.CriticalOps = r.CriticalOps
		}
		out.Elapsed += r.Elapsed
		out.QueueWait += r.QueueWait
		if r.MaxStraggler > out.MaxStraggler {
			out.MaxStraggler = r.MaxStraggler
		}
		out.Failures += r.Failures
		out.Retries += r.Retries
		out.Rounds = append(out.Rounds, r.Rounds...)
		for _, w := range r.Workers {
			for len(out.Workers) <= w.Party {
				out.Workers = append(out.Workers, mpc.WorkerStats{Party: len(out.Workers)})
			}
			ow := &out.Workers[w.Party]
			ow.MachineRounds += w.MachineRounds
			ow.Ops += w.Ops
			ow.CommWords += w.CommWords
			ow.QueueWait += w.QueueWait
			ow.Failures += w.Failures
			ow.Retries += w.Retries
			ow.WireBytes += w.WireBytes
		}
	}
	return out
}

// AggregateReports exposes the parallel-guess aggregation for other
// packages (the baseline uses the same guess structure).
func AggregateReports(reps []mpc.Report) mpc.Report { return aggregateReports(reps) }
