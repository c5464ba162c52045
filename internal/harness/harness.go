// Package harness runs the experiments that regenerate the paper's
// Table 1 as measured quantities, plus the scaling sweeps that validate
// the machine-count and total-work exponents. It is shared by cmd/mpctable,
// cmd/mpcbench and the root benchmark suite.
package harness

import (
	"fmt"
	"math"
	"math/rand"

	"mpcdist/internal/baseline"
	"mpcdist/internal/core"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

// Row is one measured Table 1 row.
type Row struct {
	Algo      string  // the spec's label, e.g. "edit-mpc(T9)"
	N         int     // input length
	X         float64 // memory exponent
	Eps       float64
	Value     int     // computed distance
	Exact     int     // oracle distance (-1 if skipped)
	Factor    float64 // Value / Exact
	Rounds    int
	Machines  int
	MemWords  int
	TotalOps  int64
	CritOps   int64
	CommWords int64   // total communication volume across rounds
	ElapsedMs float64 // machine-execution wall time (queueing excluded)
	Straggler float64 // worst per-round max/mean machine-time ratio
	// Profile resolves the run's work to paper phases (candidates / graph /
	// chain); the per-phase ops columns of Cells come from it.
	Profile mpc.PhaseProfile
	// guesses holds one report per distance guess (the whole run's report
	// when the driver has no guess ladder). The paper runs the guesses in
	// parallel, so BudgetCheck's round budgets bind each guess.
	guesses []mpc.Report
}

// Columns returns the header cells matching Cells.
func Columns() []string {
	return []string{"algo", "n", "x", "eps", "value", "exact", "factor",
		"rounds", "machines", "mem/machine", "totalOps", "criticalOps",
		"comm", "candOps", "graphOps", "chainOps", "elapsedMs", "straggler"}
}

// phaseOps renders one phase's op count, "-" when the phase never ran.
func (r Row) phaseOps(ph trace.Phase) string {
	if ps, ok := r.Profile.Get(ph); ok {
		return fmt.Sprint(ps.TotalOps)
	}
	return "-"
}

// Cells renders the row for stats.Table.
func (r Row) Cells() []interface{} {
	exact := fmt.Sprint(r.Exact)
	factor := fmt.Sprintf("%.3f", r.Factor)
	if r.Exact < 0 {
		exact, factor = "-", "-"
	}
	straggler := "-"
	if r.Straggler > 0 {
		straggler = fmt.Sprintf("%.2f", r.Straggler)
	}
	return []interface{}{r.Algo, r.N, r.X, r.Eps, r.Value, exact, factor,
		r.Rounds, r.Machines, r.MemWords, r.TotalOps, r.CritOps, r.CommWords,
		r.phaseOps(trace.PhaseCandidates), r.phaseOps(trace.PhaseGraph),
		r.phaseOps(trace.PhaseChain),
		fmt.Sprintf("%.2f", r.ElapsedMs), straggler}
}

func fromResult(algo string, n int, p core.Params, res core.Result, exact int) Row {
	row := Row{
		Algo: algo, N: n, X: p.X, Eps: p.Eps,
		Value: res.Value, Exact: exact,
		Rounds:    res.Report.NumRounds,
		Machines:  res.Report.MaxMachines,
		MemWords:  res.Report.MaxWords,
		TotalOps:  res.Report.TotalOps,
		CritOps:   res.Report.CriticalOps,
		CommWords: res.Report.CommWords,
		ElapsedMs: float64(res.Report.Elapsed.Nanoseconds()) / 1e6,
		Straggler: res.Report.MaxStraggler,
		Profile:   mpc.Profile(res.Report),
		guesses:   res.GuessReports,
	}
	if len(row.guesses) == 0 {
		row.guesses = []mpc.Report{res.Report}
	}
	if exact > 0 {
		row.Factor = float64(res.Value) / float64(exact)
	} else if exact == 0 {
		row.Factor = 1
	}
	return row
}

// Machines, TotalOps and MemWords select a row's fitted quantities.
func Machines(r Row) float64 { return float64(r.Machines) }
func TotalOps(r Row) float64 { return float64(r.TotalOps) }
func MemWords(r Row) float64 { return float64(r.MemWords) }

// instance is one generated problem: a byte pair for the edit-distance
// algorithms, a permutation pair for Ulam.
type instance struct {
	s, sbar []byte
	p, q    []int
}

// family is one planted instance family: its generator from (seed, n,
// planted distance d), its exact oracle, and the exponent of the
// sublinear distance that the fit sweeps and mpcbench plant.
type family struct {
	gen   func(seed int64, n, d int) instance
	exact func(in instance) int
	dexp  float64
}

// Planted returns the family's sublinear planted distance at size n.
func (f family) Planted(n int) int { return planted(n, f.dexp) }

// planted returns the planted distance round(n^dexp), at least 1. The
// sweeps plant sublinear distances, the regime Table 1's clean shapes are
// stated in; a linear distance would drag d-dependent polylog factors into
// every fit.
func planted(n int, dexp float64) int {
	return max(1, int(math.Round(math.Pow(float64(n), dexp))))
}

var (
	// plantedPerm is a random permutation and a copy d moves away.
	plantedPerm = family{
		gen: func(seed int64, n, d int) instance {
			rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
			p, q, _ := workload.PlantedUlam(rng, n, d)
			return instance{p: p, q: q}
		},
		exact: func(in instance) int { return ulam.Exact(in.p, in.q, nil) },
		dexp:  0.6,
	}
	// plantedRandom is a random string over 4 letters and a copy with d
	// planted edits.
	plantedRandom = family{
		gen: func(seed int64, n, d int) instance {
			rng := rand.New(rand.NewSource(seed*104729 + int64(n)))
			s := workload.RandomString(rng, n, 4)
			return instance{s: s, sbar: workload.PlantedEdits(rng, s, d, 4)}
		},
		exact: func(in instance) int { return editdist.Myers(in.s, in.sbar, nil) },
		dexp:  0.5,
	}
)

// Spec is one measured row of the paper's Table 1: the row's bounds, with
// exponents as functions of the memory exponent x, and the planted
// instance family and driver that measure it. Sweep measures it, and
// BudgetCheck and Analytic read its bounds.
type Spec struct {
	Algo   string // the measured rows' label
	Name   string // the row's name in Table 1
	Factor string // the approximation factor
	Rounds int    // round budget per distance guess
	// PhaseRounds is the per-guess round budget of each phase the
	// algorithm may run; phases absent from the map budget zero rounds.
	PhaseRounds map[trace.Phase]int
	// MachExp and WorkExp are the machine-count and total-work exponents.
	MachExp, WorkExp func(x float64) float64
	family
	run func(in instance, p core.Params) (core.Result, error)
}

// memExp is every measured row's per-machine memory exponent: each runs
// under the enforced cap core.Params.MemoryBudget, Õ(n^{1-x}).
func memExp(x float64) float64 { return 1 - x }

// The Table 1 rows under measurement. The [11] row is not re-implemented
// (DESIGN.md substitution #5), so only Analytic prints it.
var (
	// Ulam is Theorem 4.
	Ulam = &Spec{
		Algo: "ulam-mpc(T4)", Name: "Ulam (Thm 4)", Factor: "1+eps", Rounds: 2,
		PhaseRounds: map[trace.Phase]int{trace.PhaseCandidates: 1, trace.PhaseChain: 1},
		MachExp:     func(x float64) float64 { return x },
		WorkExp:     func(float64) float64 { return 1 },
		family:      plantedPerm,
		run: func(in instance, p core.Params) (core.Result, error) {
			return core.UlamMPC(in.p, in.q, p)
		},
	}
	// Edit is Theorem 9.
	Edit = &Spec{
		Algo: "edit-mpc(T9)", Name: "Edit (Thm 9)", Factor: "3+eps", Rounds: 4,
		PhaseRounds: map[trace.Phase]int{
			trace.PhaseCandidates: 1, trace.PhaseGraph: 3, trace.PhaseChain: 1,
		},
		MachExp: func(x float64) float64 { return 9 * x / 5 },
		WorkExp: func(x float64) float64 { return 2 - math.Min((1-x)/6, 2*x/5) },
		family:  plantedRandom,
		run: func(in instance, p core.Params) (core.Result, error) {
			return core.EditMPC(in.s, in.sbar, p)
		},
	}
	// HSS is the edit-distance baseline of Hajiaghayi et al. [20].
	HSS = &Spec{
		Algo: "hss[20]", Name: "Edit [20]", Factor: "1+eps", Rounds: 2,
		PhaseRounds: map[trace.Phase]int{trace.PhaseCandidates: 1, trace.PhaseChain: 1},
		MachExp:     func(x float64) float64 { return 2 * x },
		WorkExp:     func(float64) float64 { return 2 },
		family:      plantedRandom,
		run: func(in instance, p core.Params) (core.Result, error) {
			return baseline.HSSEditMPC(in.s, in.sbar, p)
		},
	}
	// Table1 lists the measured rows in the paper's order.
	Table1 = []*Spec{Ulam, Edit, HSS}
)

// measure runs sp on its instance of size n at planted distance d. With
// certify it computes the exact oracle, for the factor column. Without,
// the row feeds an exponent fit, so it skips the oracle and forces the CDQ
// match-point DP: the paper's Õ(n) total-work claim concerns the
// asymptotic algorithm, and the default build switches to the quadratic DP
// below its wall-clock crossover, which does more elementary operations
// while being faster in real time (see ulam.QuadCutoff).
func (sp *Spec) measure(n, d int, p core.Params, certify bool) (Row, error) {
	in := sp.gen(p.Seed, n, d)
	exact := -1
	if certify {
		exact = sp.exact(in)
	} else {
		old := ulam.QuadCutoff
		ulam.QuadCutoff = 0
		defer func() { ulam.QuadCutoff = old }()
	}
	res, err := sp.run(in, p)
	if err != nil {
		return Row{}, fmt.Errorf("harness: %s n=%d x=%v: %w", sp.Algo, n, p.X, err)
	}
	return fromResult(sp.Algo, n, p, res, exact), nil
}

// Sweep measures every spec at every size and memory exponent, with
// planted distance d(n), and returns one series per spec: rows[i] holds
// specs[i]'s rows, sizes outermost. The -table views certify factors
// against the exact oracle; the scaling sweeps and BudgetCheck fit
// exponents instead (see measure).
func Sweep(specs []*Spec, sizes []int, xs []float64, d func(n int) int, p core.Params, certify bool) ([][]Row, error) {
	rows := make([][]Row, len(specs))
	for _, n := range sizes {
		for _, x := range xs {
			p.X = x
			for i, sp := range specs {
				row, err := sp.measure(n, d(n), p, certify)
				if err != nil {
					return nil, err
				}
				rows[i] = append(rows[i], row)
			}
		}
	}
	return rows, nil
}

// Fit returns the fitted log-log exponent of y over one spec's series.
func Fit(rows []Row, y func(Row) float64) float64 {
	ns, ys := series(rows, y)
	return stats.LogLogSlope(ns, ys)
}

// series returns the sizes and the quantity y of one spec's rows.
func series(rows []Row, y func(Row) float64) (ns, ys []float64) {
	for _, r := range rows {
		ns = append(ns, float64(r.N))
		ys = append(ys, y(r))
	}
	return ns, ys
}

// Analytic returns the paper's Table 1 evaluated at (n, x), with the Õ
// constants dropped, so the harness can print predicted next to measured:
// the Table1 rows, then the [11] row.
func Analytic(n int, x float64) *stats.Table {
	pow := func(e float64) string { return fmt.Sprintf("n^%.2f=%.0f", e, math.Pow(float64(n), e)) }
	tb := stats.NewTable("algo", "factor", "rounds", "mem/machine", "machines", "total time")
	for _, sp := range Table1 {
		e := sp.WorkExp(x)
		work := fmt.Sprintf("n^%.2f", e)
		switch {
		case e == 1:
			work = "n"
		case e == math.Trunc(e):
			work = fmt.Sprintf("n^%.0f", e)
		}
		tb.Add(sp.Name, sp.Factor, sp.Rounds, pow(memExp(x)), pow(sp.MachExp(x)), work)
	}
	tb.Add("Edit [11]", "1+eps", "O(log n)", pow(8.0/9), pow(8.0/9), "n^2.6")
	return tb
}
