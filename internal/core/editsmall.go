package core

import (
	"mpcdist/internal/cand"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// GridRounds names a grid guess's partition, pricing round and chain
// round. Each pipeline's names are constants, so no guess builds one.
type GridRounds struct{ Partition, Pairs, Chain string }

// smallRounds are Lemma 6's round names.
var smallRounds = GridRounds{Partition: "edit/small/partition", Pairs: "edit-small/pairs", Chain: "edit-small/chain"}

// editSmall runs the two-round small-distance algorithm (Lemma 6) for the
// guess g: the grid's Eta starts per machine, the pairs within (3+eps)·g.
func editSmall(s, sbar []byte, g int, p Params) (int, mpc.Report, error) {
	return GridGuess(s, sbar, g, p, 0, 3+p.Eps, smallRounds)
}

// GridGuess runs Lemma 6's guess g and returns the chain value and the
// cluster report. Grid.Jobs cuts each block's starts into runs of eta per
// machine (0: the grid's Eta; [20] passes 1). Round 1 prices every
// (block, window) pair of a run exactly with a StartPricer, keeping the
// tuples within filter·g, where Algorithm 3 runs the [12] solver only to
// keep total work subquadratic (DESIGN.md, substitution 2); round 2 is
// Algorithm 4 on one machine.
func GridGuess(s, sbar []byte, g int, p Params, eta int, filter float64, names GridRounds) (int, mpc.Report, error) {
	n, m := len(s), len(sbar)
	cl := p.Cluster(max(n, m))
	gr := p.Grid(n, m, g)
	if eta > 0 {
		gr.Eta = eta
	}
	inputs := gr.Jobs(p.Algo, names.Partition, s, sbar, func(l int) []int { return cand.Starts(l, g, gr.Pitch, m) })
	if len(inputs) == 0 {
		// No blocks (empty s) or no starts (empty sbar): trivial answer.
		return n + m, cl.Report(), nil
	}
	dFilter := int(filter * float64(g))
	out, err := cl.Run(names.Pairs, trace.PhaseCandidates, inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		pr := gr.Pricer(m, g, dFilter)
		for _, pl := range in {
			run := pl.(*Run)
			for _, gamma := range run.Starts {
				pr.Price(x, run, gamma)
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	v, _, err := ChainRound(cl, names.Chain, out, EditChain(n, m, false))
	if err != nil {
		return 0, mpc.Report{}, err
	}
	return v, cl.Report(), nil
}
