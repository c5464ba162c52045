package core

import (
	"math/rand"
	"slices"
	"testing"

	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
	"mpcdist/internal/workload"
)

// TestLowDegreeCoinsDriveRunMachines pins the one low-degree coin stream
// (Algorithm 6 line 9): with the presampling rate below 1, a block whose
// driver coins are all down gets no run machine, and a run machine works
// at exactly the taus whose driver coin is up.
func TestLowDegreeCoinsDriveRunMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	n := 400
	s := workload.RandomString(rng, n, 10)
	sbar := workload.RandomString(rng, n, 10)
	// A large eps is the only way to push p2 below 1 at simulator sizes.
	p := Params{X: 0.25, Eps: 100, Seed: 3}.WithDefaults()
	lg := partitionLarge(p.Cluster(n), s, sbar, 350, p)
	if lg.p2 >= 1 {
		t.Fatalf("p2 = %v, want < 1", lg.p2)
	}
	var down, up []int
	for bi := range lg.blocks {
		if slices.Contains(lg.coins[bi], true) {
			up = append(up, bi)
			if lo, hi := lg.winsOf(bi); hi > lo && len(lg.runIDs[int32(bi)]) == 0 {
				t.Errorf("block %d has a coin up but no run machine", bi)
			}
		} else {
			down = append(down, bi)
			if ids := lg.runIDs[int32(bi)]; len(ids) > 0 {
				t.Errorf("block %d has every coin down but run machines %v", bi, ids)
			}
		}
	}
	if len(down) == 0 || len(up) == 0 {
		t.Fatalf("coins down on blocks %v, up on %v: need both kinds", down, up)
	}

	// Rerun one run machine with its block's coins forced one-hot at each
	// tau in turn (and all down): its direct tuples must be exactly the
	// windows within that tau.
	rid := int(lg.runIDs[int32(up[0])][0])
	job := lg.runInputs[rid][0].(*runJob)
	coins := make([]bool, len(lg.taus))
	lg.coins[job.V] = coins
	tuples := func() int {
		out, err := p.Cluster(n).Run("test/join", trace.PhaseGraph,
			map[int][]mpc.Payload{rid: lg.runInputs[rid]}, lg.runMachine)
		if err != nil {
			t.Fatal(err)
		}
		return len(out[passID])
	}
	if got := tuples(); got != 0 {
		t.Errorf("all coins down: %d tuples, want 0", got)
	}
	fired := 0
	for ti, tau := range lg.taus {
		clear(coins)
		coins[ti] = true
		want := 0
		for _, w := range job.Wins {
			d := editdist.Myers(job.Block, sbar[w[0]:w[1]+1], nil)
			if d <= tau && d <= lg.dFilter(w[1]-w[0]+1) {
				want++
			}
		}
		if got := tuples(); got != want {
			t.Errorf("coin up only at tau %d: %d tuples, want %d", tau, got, want)
		}
		if want > 0 {
			fired++
		}
	}
	if fired == 0 || fired == len(lg.taus) {
		t.Fatalf("the windows' distances fall within %d of %d taus: the test cannot tell taus apart", fired, len(lg.taus))
	}
}
