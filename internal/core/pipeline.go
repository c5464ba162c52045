package core

import (
	"fmt"
	"slices"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
)

// Every Table 1 pipeline has one shape: a driver-side partition (Grid.Jobs,
// partitionLarge, UlamMPC's match pairs), rounds whose machines send chain
// tuples to one collector in batches, one payload per start, block or
// machine (SendTuples, which StartPricer calls for the grid pipelines), and
// ChainRound, which runs the chain DP on the collector. The payloads below
// are the pipelines' one wire vocabulary for tuples and answers.

// collector is the machine the chain round runs on.
const collector = 0

// tuples is a batch of chain tuples on its way to the collector. The
// model counts words, not messages: a batch of k tuples is the 5k words
// its tuples would be one by one.
type tuples []chain.Tuple

// Words implements mpc.Payload.
func (ts tuples) Words() int { return 5 * len(ts) }

// answer carries the chain round's value and the chain realizing it back
// to the driver.
type answer struct {
	Value int
	Chain []chain.Tuple
}

// Words implements mpc.Payload.
func (a answer) Words() int { return 1 + 5*len(a.Chain) }

// SendTuples sends a batch of chain tuples to the collector, and nothing
// for an empty batch: a machine that found no tuple adds no payload.
func SendTuples(x *mpc.Ctx, ts []chain.Tuple) {
	if len(ts) > 0 {
		x.Send(collector, tuples(ts))
	}
}

// ChainDP is a chain round's program: Algorithm 2 for Ulam, Algorithm 4
// for Lemma 6 and [20], its overlap variant for Lemma 8 (Section 5.2.3),
// or the LCS extension's maximizing DP. It returns the value and, if the
// caller wants it, the chain realizing it. It must not modify tuples.
type ChainDP func(tuples []chain.Tuple, ops *stats.Ops) (int, []chain.Tuple)

// EditChain is Algorithm 4 for s of length n and sbar of length m, with
// overlapping windows allowed when overlap is set.
func EditChain(n, m int, overlap bool) ChainDP {
	return func(tuples []chain.Tuple, ops *stats.Ops) (int, []chain.Tuple) {
		return chain.EditCost(tuples, n, m, overlap, ops), nil
	}
}

// ChainRound runs a pipeline's last round under the given name: the
// collector joins the batches in its input, in arrival order, into one
// slice of its own (empty if no tuple reached it), puts that slice in
// (L, G) order in place (chain.SortLG: the order the DPs would sort a copy
// into), runs dp over it, and sends back the value and the chain.
func ChainRound(cl *mpc.Cluster, round string, in map[int][]mpc.Payload, dp ChainDP) (int, []chain.Tuple, error) {
	if _, ok := in[collector]; !ok {
		in[collector] = []mpc.Payload{}
	}
	out, err := cl.Run(round, trace.PhaseChain, in, func(x *mpc.Ctx, msgs []mpc.Payload) {
		batches := make([][]chain.Tuple, len(msgs))
		for i, pl := range msgs {
			batches[i], _ = pl.(tuples)
		}
		ts := slices.Concat(batches...)
		chain.SortLG(ts)
		v, picked := dp(ts, x.Counter())
		x.Send(collector, answer{Value: v, Chain: picked})
	})
	if err != nil {
		return 0, nil, err
	}
	if msgs := out[collector]; len(msgs) == 1 {
		if a, ok := msgs[0].(answer); ok {
			return a.Value, a.Chain, nil
		}
	}
	return 0, nil, fmt.Errorf("core: %s produced %d payloads, want one answer", round, len(out[collector]))
}

// Grid is the block/candidate decomposition of Lemma 6, [20] and the LCS
// extension (Section 5.1): blocks of B = n^{1-x} characters of s,
// candidate windows of sbar starting on a grid of pitch
// eps'·guess/(blocks) and at most B/eps' long, and Eta = B/pitch starts
// per machine ("we give several candidate substrings of each block to a
// machine", Section 5.1.1).
type Grid struct {
	EpsP   float64 // eps'; the paper's eps/22 would make simulator-scale candidate sets huge
	Block  int     // block length B
	Pitch  int     // candidate start pitch
	MaxWin int     // window length cap B/eps' + 1
	Eta    int     // starts per machine
}

// Grid returns the decomposition of s (length n) against sbar (length m)
// for the distance guess g.
func (p Params) Grid(n, m, g int) Grid {
	gr := Grid{EpsP: p.Eps / 4, Block: intPow(max(n, m), 1-p.X)}
	nBlocks := (n + gr.Block - 1) / gr.Block
	gr.Pitch = max(1, int(gr.EpsP*float64(g)/float64(max(nBlocks, 1))))
	gr.MaxWin = int(float64(gr.Block)/gr.EpsP) + 1
	gr.Eta = max(1, gr.Block/gr.Pitch)
	return gr
}

// Run is one machine's share of a Grid: the block s[L..R], a run of
// candidate starts, and the segment of sbar at SegOff holding every
// window those starts open.
type Run struct {
	L, R   int
	Block  []byte
	SegOff int
	Seg    []byte
	Starts []int
}

// Jobs is the grid drivers' partition step. It cuts each block's
// candidate starts (starts(l) for the block at offset l, ascending) into
// runs of Eta and returns the first round's inputs: one machine per run,
// in block order, holding the payload job builds from the run. It runs
// labeled phase=partition under the given name for profiles.
func (gr Grid) Jobs(algo, name string, s, sbar []byte, starts func(l int) []int, job func(Run) mpc.Payload) map[int][]mpc.Payload {
	n, m := len(s), len(sbar)
	inputs := make(map[int][]mpc.Payload)
	trace.LabelPhase(algo, trace.PhasePartition, name, func() {
		for l := 0; l < n; l += gr.Block {
			r := min(l+gr.Block-1, n-1)
			st := starts(l)
			for lo := 0; lo < len(st); lo += gr.Eta {
				run := st[lo:min(lo+gr.Eta, len(st))]
				seg := sbar[run[0]:min(run[len(run)-1]+gr.MaxWin, m)]
				inputs[len(inputs)] = []mpc.Payload{job(Run{L: l, R: r, Block: s[l : r+1],
					SegOff: run[0], Seg: seg, Starts: append([]int(nil), run...)})}
			}
		}
	})
	return inputs
}

// StartPricer is the step that the first-round machines of Lemma 6 and
// [20] run on each candidate start gamma of their block s[l..r]:
//
//  1. compute the ladder of window ends opening at gamma (cand.AppendEnds);
//  2. drop the ends outside the machine's segment of sbar, which are not
//     its to price;
//  3. build the windows' lengths: each window is a prefix of the longest;
//  4. price them all against the block in one editdist.MyersMulti pass;
//  5. send, as one batch sized exactly, the tuples within the filter
//     distance. An exact distance never exceeds the longer of the block
//     and the window, so deleting the one and inserting the other never
//     dominates a tuple, and no other filter is needed.
//
// A machine makes one StartPricer, whose ends and lengths buffers serve
// every start it prices.
type StartPricer struct {
	gr         Grid
	m, g       int // |sbar| and the distance guess
	dFilter    int
	ends, lens []int
}

// Pricer returns a StartPricer for the grid's windows of sbar (length m)
// on the ladder of the guess g, keeping the tuples within dFilter.
func (gr Grid) Pricer(m, g, dFilter int) StartPricer {
	return StartPricer{gr: gr, m: m, g: g, dFilter: dFilter}
}

// Price prices the windows opening at gamma against block = s[l..r]; seg
// is the machine's segment of sbar, at offset segOff.
func (pr *StartPricer) Price(x *mpc.Ctx, l int, block []byte, segOff int, seg []byte, gamma int) {
	pr.ends = cand.AppendEnds(pr.ends[:0], gamma, len(block), pr.m, pr.gr.EpsP, pr.gr.MaxWin, pr.g)
	pr.ends = slices.DeleteFunc(pr.ends, func(kappa int) bool { return kappa-segOff >= len(seg) })
	if len(pr.ends) == 0 {
		return
	}
	pr.lens = pr.lens[:0]
	for _, kappa := range pr.ends {
		pr.lens = append(pr.lens, kappa-gamma+1)
	}
	ds := editdist.MyersMulti(block, seg[gamma-segOff:], pr.lens, x.Counter())
	n := 0
	for _, d := range ds {
		if d <= pr.dFilter {
			n++
		}
	}
	ts := make([]chain.Tuple, 0, n)
	r := l + len(block) - 1
	for i, kappa := range pr.ends {
		if ds[i] <= pr.dFilter {
			ts = append(ts, chain.Tuple{L: l, R: r, G: gamma, K: kappa, D: ds[i]})
		}
	}
	SendTuples(x, ts)
}
