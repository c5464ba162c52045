package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
	"mpcdist/internal/workload"
)

// TestLowDegreeCoinsDriveRunMachines pins the one low-degree coin stream
// (Algorithm 6 line 9): with the presampling rate below 1, a block whose
// driver coins are all down gets no run machine, and a run machine works
// at the taus below its block's cover whose driver coin is up, sending
// each window within the largest of them once.
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
	coins := make([]bool, len(lg.taus))
	if got := rerunRunMachine(t, lg, rid, coins); len(got) != 0 {
		t.Errorf("all coins down: %d tuples, want 0", len(got))
	}
	fired := 0
	for ti, tau := range lg.taus {
		clear(coins)
		coins[ti] = true
		want := directTuples(lg, rid, tau)
		if got := rerunRunMachine(t, lg, rid, coins); len(got) != len(want) {
			t.Errorf("coin up only at tau %d: %d tuples, want %d", tau, len(got), len(want))
		}
		if len(want) > 0 {
			fired++
		}
	}
	if fired == 0 || fired == len(lg.taus) {
		t.Fatalf("the windows' distances fall within %d of %d taus: the test cannot tell taus apart", fired, len(lg.taus))
	}

	// At eps 1 the ladder is fine enough for a run machine's windows to
	// fall within several taus. Coins up at two taus that catch windows,
	// and at the next, which the block's cover does not exceed: the direct
	// tuples are the windows within the larger of the two, each sent once.
	p = Params{X: 0.25, Eps: 1, Seed: 3}.WithDefaults()
	lg = partitionLarge(p.Cluster(n), s, sbar, 350, p)
	if len(lg.runs) == 0 {
		t.Fatal("no run machine at eps 1")
	}
	rid = lg.numGroups
	var caught []int // the taus that catch more windows than the tau before
	for ti, tau := range lg.taus {
		if k := len(directTuples(lg, rid, tau)); k > 0 && (ti == 0 || k > len(directTuples(lg, rid, lg.taus[ti-1]))) {
			caught = append(caught, ti)
		}
	}
	if len(caught) < 2 || caught[1]+1 >= len(lg.taus) {
		t.Fatalf("taus %v catch new windows of %d: need two below the last", caught, len(lg.taus))
	}
	lo, hi := caught[0], caught[1]
	coins = make([]bool, len(lg.taus))
	coins[lo], coins[hi], coins[hi+1] = true, true, true
	job := lg.runs[0]
	got := rerunRunMachine(t, lg, rid, coins, distMsg{Z: 0, V: job.V, D: int32(lg.taus[hi+1])})
	want := directTuples(lg, rid, lg.taus[hi])
	t.Logf("coins up at taus %d, %d and %d: %d direct tuples", lg.taus[lo], lg.taus[hi], lg.taus[hi+1], len(got))
	if !slices.Equal(got, want) {
		t.Errorf("coins up at taus %d, %d and %d, cover %d: direct tuples %v, want %v",
			lg.taus[lo], lg.taus[hi], lg.taus[hi+1], lg.taus[hi+1], got, want)
	}
}

// rerunRunMachine runs run machine rid alone, its block's coins set to
// coins and the representatives' distances in cover, and returns the
// direct tuples it sends, sorted.
func rerunRunMachine(t *testing.T, lg *largeGuess, rid int, coins []bool, cover ...mpc.Payload) []chain.Tuple {
	t.Helper()
	job := lg.runs[rid-lg.numGroups]
	lg.coins[job.V] = coins
	out, err := lg.p.Cluster(len(lg.s)).Run("test/join", trace.PhaseGraph,
		map[int][]mpc.Payload{rid: append([]mpc.Payload{job}, cover...)}, lg.runMachine)
	if err != nil {
		t.Fatal(err)
	}
	var got []chain.Tuple
	for _, pl := range out[passID] {
		got = append(got, pl.(tuples)...)
	}
	slices.SortFunc(got, cmpTuple)
	return got
}

// directTuples returns the direct tuples of run machine rid's windows
// within tau, sorted.
func directTuples(lg *largeGuess, rid, tau int) []chain.Tuple {
	job := lg.runs[rid-lg.numGroups]
	bl := lg.blocks[job.V]
	var want []chain.Tuple
	for _, w := range lg.wins[lg.opens[job.Run.First]:lg.opens[job.Run.Last+1]] {
		d := editdist.Myers(job.Block, lg.sbar[w[0]:w[1]+1], nil)
		if d <= tau && d <= lg.dFilter(w[1]-w[0]+1) {
			want = append(want, chain.Tuple{L: bl.l, R: bl.r, G: w[0], K: w[1], D: d})
		}
	}
	slices.SortFunc(want, cmpTuple)
	return want
}

// cmpTuple orders tuples by block, then window, then distance.
func cmpTuple(a, b chain.Tuple) int {
	return cmp.Or(cmp.Compare(a.L, b.L), cmp.Compare(a.G, b.G), cmp.Compare(a.K, b.K), cmp.Compare(a.D, b.D))
}
