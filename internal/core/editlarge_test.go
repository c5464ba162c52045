package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mpcdist/internal/trace"
	"mpcdist/internal/workload"
)

// farPair is DNA against a string over the disjoint lower-case alphabet,
// so ed(s, sbar) = n and EditMPC's ladder reaches the large regime.
func farPair(seed int64, n int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(seed))
	return workload.DNA(rng, n), workload.RandomString(rng, n, 26)
}

// randomPair is two independent random strings over sigma letters.
func randomPair(seed int64, n, sigma int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(seed))
	return workload.RandomString(rng, n, sigma), workload.RandomString(rng, n, sigma)
}

// TestLargeRegimeValuesPinned pins (value, guess, regime) of Lemma 8's
// regime, run alone at a fixed guess (EditLargeMPC) and reached by
// EditMPC's ladder, on far pairs (n = 144 at guess 130 is the shape of
// mpcperf's edit-far job) and on random pairs over 4 and 12 letters, at
// eps 1 and 0.5. The values depend only on the inputs, the seed and the
// guess, never on how the rounds lay out their machines: a change to the
// layout must leave every one of them where it is.
func TestLargeRegimeValuesPinned(t *testing.T) {
	far144s, far144t := farPair(1, 144)
	far64s, far64t := farPair(6, 64)
	r12s, r12t := randomPair(2, 300, 12)
	r4s, r4t := randomPair(5, 200, 4)
	for _, c := range []struct {
		name   string
		s, t   []byte
		guess  int // 0 runs EditMPC's ladder
		eps    float64
		seed   int64
		value  int
		accept int
	}{
		{"far144/large", far144s, far144t, 130, 0.5, 1, 213, 130},
		{"far144/mpc/eps0.5", far144s, far144t, 0, 0.5, 1, 144, 130},
		{"far144/mpc/eps1", far144s, far144t, 0, 1, 1, 144, 128},
		{"far64/mpc/eps0.5", far64s, far64t, 0, 0.5, 7, 64, 58},
		{"random300/sigma12/large/eps1", r12s, r12t, 228, 1, 2, 324, 228},
		{"random300/sigma12/large/eps0.5", r12s, r12t, 228, 0.5, 2, 339, 228},
		{"random200/sigma4/large/eps1", r4s, r4t, 154, 1, 5, 149, 154},
		{"random200/sigma4/large/eps0.5", r4s, r4t, 154, 0.5, 5, 142, 154},
	} {
		p := Params{X: 0.25, Eps: c.eps, Seed: c.seed}
		var res Result
		var err error
		if c.guess > 0 {
			res, err = EditLargeMPC(c.s, c.t, c.guess, p)
		} else {
			res, err = EditMPC(c.s, c.t, p)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Value != c.value || res.Guess != c.accept || res.Regime != "large" {
			t.Errorf("%s: value %d, guess %d, regime %q; want %d, %d, \"large\"",
				c.name, res.Value, res.Guess, res.Regime, c.value, c.accept)
		}
	}
}

// TestSmallEpsReachesLargeRegime runs EditMPC at eps 0.1 on two random
// 300-character strings over 12 letters. Its ladder steps past the
// cutover at guess 229, so the large regime runs at a fine eps; pricing
// every representative against every window once made that guess take
// far longer than any request timeout. It must answer the exact distance
// well inside a deadline sized for a race-detector run.
func TestSmallEpsReachesLargeRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := workload.RandomString(rng, 300, 12)
	sbar := workload.RandomString(rng, 300, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	start := time.Now()
	res, err := EditMPC(s, sbar, Params{X: 0.25, Eps: 0.1, Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("after %v: %v", time.Since(start), err)
	}
	if res.Value != 235 || res.Regime != "large" {
		t.Errorf("value %d in regime %q, want 235 in \"large\"", res.Value, res.Regime)
	}
	t.Logf("value %d at guess %d after %d guesses in %v", res.Value, res.Guess, len(res.GuessReports), time.Since(start))
}

// TestWindowMachinesFitBudget forces budgets small enough that the layout
// cuts a machine's starts into several runs: on the far pair, a selected
// representative's windows take several extend-round window machines; on
// a short s against a long sbar (few blocks, so few chain tuples, against
// many windows), a presampled block's starts take several join-round run
// machines. Every round must stay within the budget, and the value must
// be the default budget's: the layout draws no randomness, so a machine's
// share of the starts changes no distance and no tuple.
func TestWindowMachinesFitBudget(t *testing.T) {
	far, farBar := farPair(1, 144)
	rng := rand.New(rand.NewSource(7))
	short, long := workload.RandomString(rng, 60, 12), workload.RandomString(rng, 240, 12)
	for _, c := range []struct {
		name       string
		s, sbar    []byte
		guess      int
		memFactor  float64
		runs, wins int // the machines some block's runs and some representative's windows must take
	}{
		{"far144/window-machines", far, farBar, 130, 8, 1, 2},
		{"short-long/run-machines", short, long, 210, 3, 2, 1},
	} {
		ref, err := EditLargeMPC(c.s, c.sbar, c.guess, Params{X: 0.25, Eps: 0.5, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := editParams(Params{X: 0.25, Eps: 0.5, Seed: 1, MemFactor: c.memFactor})
		res, err := EditLargeMPC(c.s, c.sbar, c.guess, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		N := max(len(c.s), len(c.sbar))
		limit := p.MemoryBudget(N)
		for _, r := range res.Report.Rounds {
			if r.MaxInWords > limit || r.MaxOutWords > limit {
				t.Errorf("%s: round %s: in %d, out %d words; budget %d", c.name, r.Name, r.MaxInWords, r.MaxOutWords, limit)
			}
		}
		if res.Value != ref.Value {
			t.Errorf("%s: value %d at MemFactor %v, %d at the default budget", c.name, res.Value, c.memFactor, ref.Value)
		}

		// Lay the join and extend rounds out again and count each block's
		// run machines and each representative's window machines.
		cl := p.Cluster(N)
		lg := partitionLarge(cl, c.s, c.sbar, c.guess, p)
		runs := 0
		for _, ids := range lg.runIDs {
			runs = max(runs, len(ids))
		}
		out, err := cl.Run("edit-large/reps", trace.PhaseGraph, lg.repsInputs(), lg.repsMachine)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = cl.Run("edit-large/join", trace.PhaseGraph, lg.joinInputs(out), lg.joinMachine); err != nil {
			t.Fatal(err)
		}
		wins := make(map[int32]int)
		most := 0
		for _, pls := range lg.extendInputs(out) {
			for _, pl := range pls {
				if job, ok := pl.(*winJob); ok {
					z := job.Choices[0].Z
					wins[z]++
					most = max(most, wins[z])
				}
			}
		}
		if runs < c.runs || most < c.wins {
			t.Errorf("%s: at most %d run machines per block and %d window machines per representative; want at least %d and %d",
				c.name, runs, most, c.runs, c.wins)
		}
	}
}
