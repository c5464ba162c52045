// Command mpctable regenerates the paper's Table 1 as measured rows on the
// simulated MPC cluster, and fits the scaling exponents behind the
// machine-count and total-work claims.
//
// Usage:
//
//	mpctable -table ulam              # Theorem 4 rows across n, x
//	mpctable -table edit              # Theorem 9 vs HSS [20] rows
//	mpctable -sweep machines          # machine-count exponent fit
//	mpctable -sweep ulam              # Ulam total-work/machines fit
//	mpctable -budget                  # Table 1 budget-conformance sweep
//	mpctable -table ulam -trace t.json   # + Chrome trace of every round
//
// The model quantities (machines, rounds, words, DP operations) are
// measurements of the simulation, not wall-clock claims; the elapsedMs and
// straggler columns report real execution time and per-round load balance
// of the simulator itself. With -trace, every MPC round is exported as a
// Chrome trace-event file viewable in Perfetto or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/core"
	"mpcdist/internal/fault"
	"mpcdist/internal/harness"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/traceio"
)

func main() {
	table := flag.String("table", "", "table to regenerate: ulam | edit")
	sweep := flag.String("sweep", "", "sweep to run: machines | ulam | x")
	budget := flag.Bool("budget", false, "run the Table 1 budget-conformance sweep (exit 1 on any FAIL)")
	eps := flag.Float64("eps", 0.5, "approximation slack epsilon")
	seed := flag.Int64("seed", 1, "random seed")
	small := flag.Bool("small", false, "use smaller sizes (faster)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of all MPC rounds to this file")
	version := flag.Bool("version", false, "print version and exit")
	faults := fault.BindFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("mpctable"))
		return
	}

	// SIGQUIT mid-sweep (or MPCDIST_FLIGHT_OUT at exit) dumps the flight
	// recorder's retained window of recent rounds; fail() runs the
	// finalizer too so a failing sweep still leaves its black box.
	flightDump = traceio.ArmFlight("mpctable")
	defer flightDump()

	base := core.Params{Eps: *eps, Seed: *seed, Faults: faults}
	if faults.Active() {
		fmt.Fprintf(os.Stderr, "mpctable: fault injection active: %s (model counters are unaffected; recovery is exact)\n", faults)
	}
	if *traceOut != "" {
		// From here on the process log keeps every event of every cluster;
		// the trace file renders them after the sweep.
		trace.Flight().Keep()
	}

	var err error
	switch {
	case *table == "ulam":
		err = runUlamTable(os.Stdout, base, *small)
	case *table == "edit":
		err = runEditTable(os.Stdout, base, *small)
	case *sweep == "machines":
		err = runMachineSweep(os.Stdout, base, *small)
	case *sweep == "ulam":
		err = runUlamSweep(os.Stdout, base, *small)
	case *sweep == "x":
		err = runXSweep(os.Stdout, base, *small)
	case *budget:
		err = runBudget(os.Stdout, base, *small)
	default:
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nPick one of -table ulam|edit, -sweep machines|ulam|x, or -budget.")
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	if *traceOut != "" {
		// traceio surfaces create/write/sync/close failures and removes a
		// partial file; a flush error exits nonzero rather than leaving a
		// truncated trace behind.
		if err := traceio.WriteFile(*traceOut, trace.Flight().Trace()); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mpctable: wrote trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
}

// flightDump is ArmFlight's finalizer; fail runs it so os.Exit cannot
// skip the exit dump a caller asked for via MPCDIST_FLIGHT_OUT.
var flightDump = func() {}

func fail(err error) {
	flightDump()
	fmt.Fprintln(os.Stderr, "mpctable:", err)
	os.Exit(1)
}

func runUlamTable(w io.Writer, base core.Params, small bool) error {
	fmt.Fprintln(w, "Table 1, row 'Ulam Distance (Theorem 4)': 1+eps, 2 rounds, Õ(n^x) machines, Õ(n^{1-x}) words each")
	fmt.Fprintln(w)
	sizes := []int{512, 1024, 2048}
	if small {
		sizes = []int{256, 512}
	}
	rows, err := harness.Sweep([]*harness.Spec{harness.Ulam}, sizes, []float64{0.2, 0.3, 0.4},
		func(n int) int { return n / 10 }, base, true)
	if err != nil {
		return err
	}
	tb := stats.NewTable(harness.Columns()...)
	for _, r := range rows[0] {
		tb.Add(r.Cells()...)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintln(w, "\nExpected shape: rounds = 2 always, factor <= 1+eps, machines ~ n^x.")
	return nil
}

func runEditTable(w io.Writer, base core.Params, small bool) error {
	fmt.Fprintln(w, "Table 1, rows 'Edit Distance': Theorem 9 (ours) vs Hajiaghayi et al. [20]")
	fmt.Fprintln(w, "(The [11] row — 1+eps, O(log n) rounds, Õ(n^{8/9}) machines/memory — is dominated")
	fmt.Fprintln(w, " by [20] on every axis measured here and is reported analytically only; DESIGN.md #5.)")
	fmt.Fprintln(w)
	sizes := []int{600, 1200, 2400}
	if small {
		sizes = []int{400, 800}
	}
	rows, err := harness.Sweep([]*harness.Spec{harness.Edit, harness.HSS}, sizes, []float64{0.2, 0.25},
		func(n int) int { return n/40 + 1 }, base, true)
	if err != nil {
		return err
	}
	tb := stats.NewTable(harness.Columns()...)
	for i, ours := range rows[0] {
		tb.Add(ours.Cells()...)
		tb.Add(rows[1][i].Cells()...)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintln(w, "\nExpected shape: ours uses fewer machines at the same per-machine memory;")
	fmt.Fprintln(w, "rounds <= 4 per guess (2 in the small regime) vs 2 for [20]; factors within bounds.")
	fmt.Fprintln(w, "\nAnalytic Table 1 at the largest size, for comparison:")
	fmt.Fprint(w, harness.Analytic(sizes[len(sizes)-1], 0.25))
	return nil
}

func runMachineSweep(w io.Writer, base core.Params, small bool) error {
	sizes := []int{400, 800, 1600, 3200, 6400}
	if small {
		sizes = []int{400, 800, 1600}
	}
	x := 0.25
	fmt.Fprintf(w, "Machine-count sweep at x = %.2f, planted distance ~ n^0.5:\n\n", x)
	rows, err := harness.Sweep([]*harness.Spec{harness.Edit, harness.HSS}, sizes, []float64{x},
		harness.Edit.Planted, base, false)
	if err != nil {
		return err
	}
	ours, hss := rows[0], rows[1]
	tb := stats.NewTable("n", "machines(ours)", "machines(hss)", "ratio", "ops(ours)", "ops(hss)")
	for i, o := range ours {
		h := hss[i]
		tb.Add(o.N, o.Machines, h.Machines, stats.Ratio(int64(h.Machines), int64(o.Machines)),
			o.TotalOps, h.TotalOps)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\nFitted exponents (machines): ours n^%.2f vs hss n^%.2f  (paper: n^{(9/5)x}=n^%.2f vs n^{2x}=n^%.2f)\n",
		harness.Fit(ours, harness.Machines), harness.Fit(hss, harness.Machines),
		harness.Edit.MachExp(x), harness.HSS.MachExp(x))
	fmt.Fprintf(w, "Fitted exponents (total ops): ours n^%.2f vs hss n^%.2f\n",
		harness.Fit(ours, harness.TotalOps), harness.Fit(hss, harness.TotalOps))
	return nil
}

func runXSweep(w io.Writer, base core.Params, small bool) error {
	n := 3000
	if small {
		n = 1000
	}
	fmt.Fprintf(w, "Machines vs memory exponent x at n = %d (planted distance n/40):\n\n", n)
	rows, err := harness.Sweep([]*harness.Spec{harness.Edit, harness.HSS}, []int{n},
		[]float64{0.12, 0.16, 0.2, 0.25, 0.29}, func(n int) int { return n / 40 }, base, false)
	if err != nil {
		return err
	}
	tb := stats.NewTable("x", "machines(ours)", "machines(hss)", "ratio", "paper ours n^{1.8x}", "paper hss n^{2x}")
	for i, o := range rows[0] {
		h := rows[1][i]
		tb.Add(o.X, o.Machines, h.Machines, stats.Ratio(int64(h.Machines), int64(o.Machines)),
			fmt.Sprintf("%.0f", pow(n, harness.Edit.MachExp(o.X))), fmt.Sprintf("%.0f", pow(n, harness.HSS.MachExp(o.X))))
	}
	fmt.Fprint(w, tb)
	fmt.Fprintln(w, "\nExpected shape: both grow with x; ours stays below hss at every x.")
	return nil
}

func pow(n int, e float64) float64 { return math.Pow(float64(n), e) }

func runBudget(w io.Writer, base core.Params, small bool) error {
	sizes := []int{400, 800, 1600, 3200}
	if small {
		sizes = []int{400, 800, 1600}
	}
	x := 0.25
	fmt.Fprintf(w, "Table 1 budget conformance at x = %.2f, eps = %.2f, sizes %v:\n", x, base.Eps, sizes)
	fmt.Fprintln(w, "(measured per-phase and whole-run quantities vs the paper's envelopes;")
	fmt.Fprintln(w, " 'constant' is the fitted leading constant measured/n^paperExp — the Õ made explicit)")
	fmt.Fprintln(w)
	rows, err := harness.BudgetCheck(harness.BudgetConfig{
		Sizes: sizes, X: x, Eps: base.Eps, Seed: base.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, harness.BudgetTable(rows))
	failed := 0
	for _, r := range rows {
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d budget rows FAIL", failed, len(rows))
	}
	fmt.Fprintf(w, "\nAll %d budget rows PASS.\n", len(rows))
	return nil
}

func runUlamSweep(w io.Writer, base core.Params, small bool) error {
	sizes := []int{512, 1024, 2048, 4096}
	if small {
		sizes = []int{512, 1024, 2048}
	}
	x := 0.3
	fmt.Fprintf(w, "Ulam scaling sweep at x = %.2f, planted distance ~ n^0.6:\n\n", x)
	rows, err := harness.Sweep([]*harness.Spec{harness.Ulam}, sizes, []float64{x}, harness.Ulam.Planted, base, false)
	if err != nil {
		return err
	}
	tb := stats.NewTable("n", "machines", "totalOps", "mem/machine")
	for _, r := range rows[0] {
		tb.Add(r.N, r.Machines, r.TotalOps, r.MemWords)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "\nFitted exponents: totalOps n^%.2f (paper: Õ(n) => ~1), machines n^%.2f (paper: n^x = n^%.2f)\n",
		harness.Fit(rows[0], harness.TotalOps), harness.Fit(rows[0], harness.Machines), harness.Ulam.MachExp(x))
	return nil
}
