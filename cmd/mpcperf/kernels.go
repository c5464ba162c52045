package main

import (
	"math/rand"
	"runtime"
	"time"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/stats"
	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

// kernel is one pair or chain kernel timed by direct calls, on inputs
// shaped like the machines of the workload its comment names.
type kernel struct {
	name string
	// setup builds the inputs from rng and returns one call.
	setup func(rng *rand.Rand) func(*stats.Ops)
}

var kernels = []kernel{
	// edit-far's large regime compares blocks of N^(1-6x/5) = 32 characters
	// (N = 144, x = 0.25) with windows a few blocks long, over disjoint
	// alphabets.
	{"myers", func(rng *rand.Rand) func(*stats.Ops) {
		a, b := workload.DNA(rng, 32), workload.RandomString(rng, 96, 26)
		return func(o *stats.Ops) { editdist.Myers(a, b, o) }
	}},
	// edit-tcp-ckpt's small regime prices a block of N^(1-x) = 181
	// characters (N = 1024, x = 0.25) against the ladder of windows that
	// open at one start, in one pass, at the accepted guess.
	{"myers_multi", func(rng *rand.Rand) func(*stats.Ops) {
		const n, bsz, d, guess = 1024, 181, 38, 26
		pr := dnaPair(rng, n, d, 0)
		epsP := eps / 4
		ends := cand.Ends(0, bsz, len(pr.t), epsP, int(bsz/epsP)+1, guess)
		prefixes := make([]int, len(ends))
		longest := 0
		for i, e := range ends {
			prefixes[i] = e + 1
			longest = max(longest, e+1)
		}
		full := pr.t[:longest]
		return func(o *stats.Ops) { editdist.MyersMulti(pr.s[:bsz], full, prefixes, o) }
	}},
	// ulam-large's round 1: a block of n^(1-x) = 208 characters (n = 2048,
	// x = 0.3) against all of sbar, from its match pairs.
	{"ulam_local", func(rng *rand.Rand) func(*stats.Ops) {
		blen, pairs, m := ulamBlock(rng)
		return func(o *stats.Ops) { ulam.LocalPairs(blen, pairs, m, o) }
	}},
	// ... and against one candidate window: the one the local distance
	// picked.
	{"ulam_window", func(rng *rand.Rand) func(*stats.Ops) {
		blen, pairs, m := ulamBlock(rng)
		_, w := ulam.LocalPairs(blen, pairs, m, nil)
		return func(o *stats.Ops) { ulam.WindowDist(blen, pairs, w.Gamma, w.Kappa, o) }
	}},
	// ulam-large's chain machine: the candidate tuples of its 10 blocks
	// (9,825 at seed 1).
	{"chain_ulam", func(rng *rand.Rand) func(*stats.Ops) {
		const n = 2048
		ts := tuples(rng, n, 208, 9800)
		return func(o *stats.Ops) { chain.UlamCostChain(ts, n, n, o) }
	}},
	// edit-tcp-ckpt's chain machine at the accepted guess (26): the
	// candidate tuples of its 6 blocks, about 12,500.
	{"chain_edit", func(rng *rand.Rand) func(*stats.Ops) {
		const n = 1024
		ts := tuples(rng, n, 181, 12500)
		return func(o *stats.Ops) { chain.EditCost(ts, n, n, false, o) }
	}},
}

func ulamBlock(rng *rand.Rand) (blen int, pairs []ulam.Pair, m int) {
	const bsz = 208
	pr := ulamPair(rng, 2048, 0)
	l := rng.Intn(len(pr.p) - bsz)
	return bsz, ulam.PairsOf(pr.p[l:l+bsz], pr.q), len(pr.q)
}

// tuples returns count chain tuples spread over the blocks of an n-long
// string: each maps a block to a window of about its length near its own
// offset.
func tuples(rng *rand.Rand, n, bsz, count int) []chain.Tuple {
	nb := (n + bsz - 1) / bsz
	ts := make([]chain.Tuple, 0, count)
	for i := 0; i < count; i++ {
		l := (i % nb) * bsz
		r := min(l+bsz-1, n-1)
		g := min(max(l+rng.Intn(bsz/2)-bsz/4, 0), n-1)
		k := min(g+bsz-1+rng.Intn(bsz/4)-bsz/8, n-1)
		ts = append(ts, chain.Tuple{L: l, R: r, G: g, K: max(k, g-1), D: rng.Intn(bsz / 4)})
	}
	return ts
}

// kernelBudget is how long each kernel is called for.
const kernelBudget = 150 * time.Millisecond

// kernelTier times every kernel on inputs drawn from seed and returns
// per-call ns and allocations and ns per counted model op.
func kernelTier(seed int64, budget time.Duration) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	for _, k := range kernels {
		call := k.setup(rng)
		call(nil)
		var ops stats.Ops
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		calls := 0
		for calls == 0 || time.Since(start) < budget {
			call(&ops)
			calls++
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		out["kernel."+k.name+".ns"] = float64(el.Nanoseconds()) / float64(calls)
		out["kernel."+k.name+".allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
		if n := ops.Count(); n > 0 {
			out["kernel."+k.name+".ns_per_op"] = float64(el.Nanoseconds()) / float64(n)
		}
	}
	return out
}
