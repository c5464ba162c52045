package core

import (
	"bytes"
	"fmt"
	"math"

	"mpcdist/internal/mpc"
)

// EditMPC approximates ed(s, sbar) in at most four MPC rounds per distance
// guess (Theorem 9): within 1+eps when a small-regime guess accepts, since
// that regime's pair distances are exact, and within 3+eps when a
// large-regime guess does. Requires 0 < X <= 5/17.
//
// Distance guesses n^delta = (1+eps)^i are, in the paper, all run in
// parallel, with the smallest valid guess winning; the simulator runs them
// in ascending order and stops at the first acceptance (the same winner),
// reporting per-guess statistics and a parallel-style aggregate (rounds =
// max, machines and work = sum).
func EditMPC(s, sbar []byte, p Params) (Result, error) {
	p = editParams(p)
	n, m := len(s), len(sbar)
	N := max(n, m)
	if N == 0 {
		return Result{Value: 0, Regime: "equal"}, nil
	}
	if err := p.validate(N, MaxXEdit); err != nil {
		return Result{}, err
	}
	// ed = 0 is detected separately, as in the paper.
	if n == m && bytes.Equal(s, sbar) {
		return Result{Value: 0, Regime: "equal"}, nil
	}

	cutover := math.Pow(float64(N), 1-p.X/5)

	best := n + m
	var reports []mpc.Report
	for _, g := range Ladder(p.Eps, n+m) {
		var (
			v      int
			rep    mpc.Report
			regime string
			accept float64
			err    error
		)
		if float64(g) <= cutover {
			// Exact pair distances make the small regime a 1+eps scheme.
			regime, accept = "small", 1+p.Eps
			v, rep, err = editSmall(s, sbar, g, p)
		} else {
			regime, accept = "large", 3+p.Eps
			v, rep, err = editLarge(s, sbar, g, p)
		}
		if err != nil {
			return Result{}, err
		}
		reports = append(reports, rep)
		if v < best {
			best = v
		}
		if float64(v) <= accept*float64(g) || g >= n+m {
			return Result{
				Value:        best,
				Guess:        g,
				Regime:       regime,
				Report:       AggregateReports(reports),
				GuessReports: reports,
			}, nil
		}
	}
	// Unreachable: the last ladder guess always accepts.
	return Result{Value: best, Report: AggregateReports(reports), GuessReports: reports}, nil
}

// editParams fills in the defaults and names the pipeline "edit-mpc" for
// the profiler labels and the flight recorder, the same for the whole
// ladder and for either regime run on its own.
func editParams(p Params) Params {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = "edit-mpc"
	}
	return p
}

// EditSmallMPC exposes the small-distance regime (Lemma 6) for a fixed
// guess, for tests and benchmarks.
func EditSmallMPC(s, sbar []byte, guess int, p Params) (Result, error) {
	p = editParams(p)
	N := max(len(s), len(sbar))
	if err := p.validate(N, MaxXEdit); err != nil {
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
	p = editParams(p)
	N := max(len(s), len(sbar))
	if err := p.validate(N, MaxXEdit); err != nil {
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

// AggregateReports combines per-guess reports the way the paper's parallel
// guessing would: rounds is the maximum, machines and total work add up,
// and the critical path is the maximum.
func AggregateReports(reps []mpc.Report) mpc.Report {
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
