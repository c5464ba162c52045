// Package mpcdist implements the massively parallel computation (MPC)
// algorithms for edit distance and Ulam distance of Boroujeni, Ghodsi, and
// Seddighin (SPAA 2019 / IEEE TPDS 2021), together with the exact
// sequential kernels they build on and the prior MPC algorithm of
// Hajiaghayi, Seddighin, and Sun they improve upon.
//
// # Distances
//
// Edit distance counts the insertions, deletions, and substitutions (each
// of cost 1) needed to transform one string into another. Ulam distance is
// its restriction to strings without repeated characters (w.l.o.g.
// permutations), with substitutions still allowed — the harder,
// "conventional" formulation of the paper.
//
// Exact sequential computation:
//
//	d := mpcdist.EditDistance("elephant", "relevant") // 3
//	u := mpcdist.UlamDistance([]int{1, 2, 3}, []int{2, 3, 1}) // 2
//
// # MPC simulation
//
// The MPC algorithms run on a simulated cluster whose machines have
// Õ(n^{1-x}) words of memory each; the simulation enforces the memory cap
// and measures the model quantities of the paper's Table 1 — rounds,
// machines, per-machine memory, total and critical-path computation:
//
//	res, err := mpcdist.UlamDistanceMPC(s, sbar, mpcdist.MPCParams{X: 0.3, Eps: 0.5})
//	// res.Value within 1+eps of ulam(s, sbar) whp, res.Report.NumRounds == 2
//
//	res, err = mpcdist.EditDistanceMPC(a, b, mpcdist.MPCParams{X: 0.25, Eps: 0.5})
//	// 3+eps approximation (1+eps when the small-distance regime, whose
//	// pair distances are exact, answers), at most 4 rounds per guess
//
// The baseline of Table 1's "previous work" row is available as
// EditDistanceHSS, using one machine per (block, candidate) pair.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// measured reproduction of Table 1.
package mpcdist
