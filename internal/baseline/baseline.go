// Package baseline implements the comparison algorithms of the paper's
// Table 1: the 1+eps, two-round MPC edit-distance algorithm of Hajiaghayi,
// Seddighin, and Sun [20] — which assigns every (block, candidate
// substring) pair to its own machine and therefore uses Õ(n^{2x}) machines
// where the paper's algorithm needs Õ(n^{2x-(1-delta)}) in the small
// regime — and the LCS extension of the same block/candidate scheme. Both
// are core's grid pipeline: core's entry, block grid and core.Run
// payloads, chain tuples sent to core's collector, and core's chain round.
// [20] runs Lemma 6's guess (core.GridGuess) at one start per machine on
// core's guess ladder (core.Climb); the LCS extension keeps its own
// descending ladder.
package baseline

import (
	"mpcdist/internal/core"
	"mpcdist/internal/mpc"
)

// hssRounds are [20]'s round names.
var hssRounds = core.GridRounds{Partition: "hss/partition", Pairs: "hss/pairs", Chain: "hss/chain"}

// HSSEditMPC approximates ed(s, sbar) within 1+eps in two rounds per
// distance guess, using one machine per (block, candidate starting point)
// as in [20]. Each guess is Lemma 6's guess with no packing of several
// starts onto one machine and the filter 1+eps, so that machine and work
// counts are directly comparable with the paper algorithm's small regime.
func HSSEditMPC(s, sbar []byte, p core.Params) (core.Result, error) {
	p, res, done, err := core.Enter(s, sbar, p, "edit-hss", core.MaxXHalf, 0)
	if done {
		return res, err
	}
	return core.Climb(p.Eps, len(s), len(sbar), func(g int) (int, mpc.Report, string, float64, error) {
		v, rep, err := core.GridGuess(s, sbar, g, p, 1, 1+p.Eps, hssRounds)
		return v, rep, "hss", 1 + p.Eps, err
	})
}
