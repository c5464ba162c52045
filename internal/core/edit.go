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
// parallel, with the smallest valid guess winning; Climb runs them in
// ascending order and stops at the first acceptance, the same winner.
func EditMPC(s, sbar []byte, p Params) (Result, error) {
	p, res, done, err := Enter(s, sbar, p, editAlgo, MaxXEdit, 0)
	if done {
		return res, err
	}
	cutover := math.Pow(float64(max(len(s), len(sbar))), 1-p.X/5)
	return Climb(p.Eps, len(s), len(sbar), func(g int) (int, mpc.Report, string, float64, error) {
		if float64(g) <= cutover {
			// Exact pair distances make the small regime a 1+eps scheme.
			v, rep, err := editSmall(s, sbar, g, p)
			return v, rep, "small", 1 + p.Eps, err
		}
		v, rep, err := editLarge(s, sbar, g, p)
		return v, rep, "large", 3 + p.Eps, err
	})
}

// editAlgo names the edit pipeline, for either regime run on its own too.
const editAlgo = "edit-mpc"

// Enter is the first step of EditMPC, HSSEditMPC and LCSMPC: it fills
// in p's defaults, names the pipeline algo unless p names one, and
// checks X against maxX and eps. Equal inputs need no guess (ed = 0 is
// detected separately, as in the paper): they come back done with the
// value same and the regime "equal", the empty pair before the check and
// any other after it. An error comes back done too.
func Enter(s, sbar []byte, p Params, algo string, maxX float64, same int) (Params, Result, bool, error) {
	p = p.named(algo)
	if len(s) == 0 && len(sbar) == 0 {
		return p, Result{Value: same, Regime: "equal"}, true, nil
	}
	if err := CheckParams(p.X, p.Eps, maxX); err != nil {
		return p, Result{}, true, err
	}
	if bytes.Equal(s, sbar) {
		return p, Result{Value: same, Regime: "equal"}, true, nil
	}
	return p, Result{}, false, nil
}

// named fills in p's defaults and names the pipeline algo unless p names
// one.
func (p Params) named(algo string) Params {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = algo
	}
	return p
}

// Climb runs step on the guesses g of Ladder(eps, n+m) in ascending
// order for inputs of lengths n and m; step returns the guess's value,
// its report, the regime that ran and the factor within which it
// accepts. Climb keeps the best value so far and one report per guess,
// and stops at the first guess whose value is at most its acceptance
// factor times the guess, or at the ladder's last guess, the one that
// reaches n+m. It aggregates the reports parallel-style (rounds = max,
// machines and work = sum).
func Climb(eps float64, n, m int, step func(g int) (int, mpc.Report, string, float64, error)) (Result, error) {
	res := Result{Value: n + m}
	for _, g := range Ladder(eps, n+m) {
		v, rep, regime, accept, err := step(g)
		if err != nil {
			return Result{}, err
		}
		res.Value, res.Guess, res.Regime = min(res.Value, v), g, regime
		res.GuessReports = append(res.GuessReports, rep)
		if float64(v) <= accept*float64(g) {
			break
		}
	}
	res.Report = AggregateReports(res.GuessReports)
	return res, nil
}

// EditSmallMPC exposes the small-distance regime (Lemma 6) for a fixed
// guess, for tests and benchmarks.
func EditSmallMPC(s, sbar []byte, guess int, p Params) (Result, error) {
	p = p.named(editAlgo)
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
	p = p.named(editAlgo)
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
