// Command mpcdist computes edit and Ulam distances with any of the
// repository's algorithms, printing the value and (for MPC algorithms) the
// measured model quantities.
//
// Usage:
//
//	mpcdist -algo exact -a kitten -b sitting
//	mpcdist -algo mpc -afile genome1.txt -bfile genome2.txt -x 0.25 -eps 0.5
//	mpcdist -algo ulam-mpc -a "3 1 4 5 2" -b "1 4 3 5 2" -x 0.3
//	mpcdist -algo mpc -afile a.txt -bfile b.txt -transport tcp -workers 3
//	                      # same run across 3 real worker processes over TCP
//	mpcdist -algo ulam-mpc -a "3 1 4 5 2" -b "1 4 3 5 2" -soak 25 \
//	        -netchaos-corrupt 0.01 -netchaos-drop 0.005 -rejoin-grace 2s
//	                      # 25 fresh sessions under rotating link-fault
//	                      # seeds; every one must be bit-identical
//
// Algorithms: exact, myers, bounded, approx, script, mpc (Theorem 9),
// hss ([20] baseline), ulam (exact), ulam-mpc (Theorem 4), lulam.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpcdist/internal/approx"
	"mpcdist/internal/baseline"
	"mpcdist/internal/buildinfo"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/dist"
	"mpcdist/internal/editdist"
	"mpcdist/internal/fault"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/traceio"
	"mpcdist/internal/transport"
	"mpcdist/internal/ulam"
)

func main() {
	dist.MaybeWorkerMain() // spawned worker processes re-exec this binary
	algo := flag.String("algo", "exact", "algorithm: exact|myers|bounded|diagonal|approx|script|mpc|hss|ulam|ulam-mpc|lulam")
	aStr := flag.String("a", "", "first input (string, or space/comma-separated ints for ulam)")
	bStr := flag.String("b", "", "second input")
	aFile := flag.String("afile", "", "read first input from file")
	bFile := flag.String("bfile", "", "read second input from file")
	x := flag.Float64("x", 0.25, "MPC memory exponent")
	eps := flag.Float64("eps", 0.5, "approximation slack")
	seed := flag.Int64("seed", 1, "random seed")
	bound := flag.Int("bound", 100, "distance cap for -algo bounded")
	verbose := flag.Bool("v", false, "print per-round statistics")
	verify := flag.Bool("verify", false, "also compute the exact distance and report the factor")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the MPC rounds to this file")
	transportName := flag.String("transport", "local", "shuffle transport: local (in-process) or tcp (real worker processes)")
	workers := flag.Int("workers", 2, "worker processes for -transport tcp")
	statusAddr := flag.String("status", "", "serve a live JSON session snapshot at this address (host:port; -transport tcp only)")
	soak := flag.Int("soak", 0, "replay the job across this many fresh tcp sessions under rotating -netchaos-* seeds, asserting bit-identical results every time (requires an MPC algorithm)")
	checkpointDir := flag.String("checkpoint-dir", "", "snapshot every completed MPC round into this checkpoint store (see docs/CHECKPOINT.md)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "persist checkpoints every N rounds (with -checkpoint-dir)")
	resume := flag.Bool("resume", false, "fast-forward rounds already checkpointed for this job spec in -checkpoint-dir")
	version := flag.Bool("version", false, "print version information and exit")
	faultFlags := fault.BindFlags(flag.CommandLine)
	transportOpts := transport.BindFlags(flag.CommandLine)
	chaosPlan := netchaos.BindFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mpcdist"))
		return
	}

	// Arm the always-on flight recorder: SIGQUIT and the automatic
	// triggers (retry exhaustion, peer loss) dump the retained window, and
	// with MPCDIST_FLIGHT_OUT set the process also dumps on exit — die()
	// included, so a fatal run still leaves its black box behind.
	flightDump = traceio.ArmFlight("mpcdist")
	defer flightDump()

	topts, terr := transportOpts()
	if terr != nil {
		die("%v", terr)
	}
	chaos := chaosPlan()

	distAlgos := map[string]string{"mpc": dist.AlgoEditMPC, "hss": dist.AlgoEditHSS, "ulam-mpc": dist.AlgoUlamMPC}
	if *soak > 0 {
		if _, ok := distAlgos[*algo]; !ok {
			die("-soak requires an MPC algorithm (mpc, hss, ulam-mpc), not %q", *algo)
		}
		// Soak spawns its own tcp sessions regardless of -transport.
		*transportName = "tcp"
	}
	switch *transportName {
	case "local":
		if chaos != nil {
			die("-netchaos-* flags require -transport tcp (there is no wire to perturb in-process)")
		}
	case "tcp":
		if _, ok := distAlgos[*algo]; !ok {
			die("-transport tcp requires an MPC algorithm (mpc, hss, ulam-mpc), not %q", *algo)
		}
		if *workers < 1 {
			die("-transport tcp needs -workers >= 1, got %d", *workers)
		}
	default:
		die("unknown -transport %q (want local or tcp)", *transportName)
	}
	if *statusAddr != "" && *transportName != "tcp" {
		die("-status requires -transport tcp")
	}
	if *checkpointDir != "" {
		if _, ok := distAlgos[*algo]; !ok {
			die("-checkpoint-dir requires an MPC algorithm (mpc, hss, ulam-mpc), not %q", *algo)
		}
		if *soak > 0 {
			die("-checkpoint-dir is incompatible with -soak (soak sessions would share one job's store)")
		}
	}
	if *resume && *checkpointDir == "" {
		die("-resume requires -checkpoint-dir")
	}
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "mpcdist: link chaos active: %s\n", chaos)
	}
	soakN, sessTransport, sessChaos = *soak, topts, chaos
	ckptDir, ckptEvery, ckptResume = *checkpointDir, *checkpointEvery, *resume

	a := input(*aStr, *aFile)
	b := input(*bStr, *bFile)
	var ops stats.Ops
	p := core.Params{X: *x, Eps: *eps, Seed: *seed}
	p.Faults, p.MaxRetries = faultFlags()
	if p.Faults != nil {
		switch *algo {
		case "mpc", "hss", "ulam-mpc":
			fmt.Fprintf(os.Stderr, "mpcdist: fault injection active: %s\n", p.Faults)
		default:
			die("-fault-* flags require an MPC algorithm (mpc, hss, ulam-mpc), not %q", *algo)
		}
	}
	if *traceOut != "" {
		switch *algo {
		case "mpc", "hss", "ulam-mpc":
			if *transportName == "tcp" {
				// Distributed runs ship telemetry from every worker and write
				// one merged multi-process trace (see runMPC); an in-process
				// Chrome observer would only see the coordinator's view.
			} else {
				chromeTrace = trace.NewChrome()
				tracePath = *traceOut
				p.Observer = chromeTrace
			}
		default:
			die("-trace requires an MPC algorithm (mpc, hss, ulam-mpc), not %q", *algo)
		}
	}
	defer flushTrace()

	// Validate flags up front so bad input exits with a message, not a
	// panic: the MPC exponent range depends on the algorithm (Theorem 4
	// vs Theorem 9), and the Ulam kernels require distinct characters.
	switch *algo {
	case "mpc", "hss":
		if *x <= 0 || (*algo == "mpc" && *x > 5.0/17+1e-9) || (*algo == "hss" && *x >= 0.5) {
			die("x = %v outside the valid range for -algo %s (mpc: (0, 5/17], hss: (0, 1/2))", *x, *algo)
		}
	case "ulam-mpc":
		if *x <= 0 || *x >= 0.5 {
			die("x = %v outside (0, 1/2) for -algo ulam-mpc", *x)
		}
	case "bounded":
		if *bound < 0 {
			die("-bound must be >= 0, got %d", *bound)
		}
	}
	switch *algo {
	case "exact":
		fmt.Println(editdist.Bytes(a, b, &ops))
		fmt.Fprintf(os.Stderr, "ops=%d\n", ops.Count())
	case "myers":
		fmt.Println(editdist.Myers(a, b, &ops))
		fmt.Fprintf(os.Stderr, "word-ops=%d\n", ops.Count())
	case "bounded":
		fmt.Println(editdist.BoundedDistance(a, b, *bound, &ops))
	case "diagonal":
		fmt.Println(editdist.DiagonalTransition(a, b, &ops))
		fmt.Fprintf(os.Stderr, "ops=%d\n", ops.Count())
	case "approx":
		fmt.Println(approx.Ed(a, b, approx.Params{Eps: *eps, Seed: *seed}, &ops))
		fmt.Fprintf(os.Stderr, "ops=%d factor<=%.2f\n", ops.Count(), approx.Factor(approx.Params{Eps: *eps}))
	case "script":
		script := editdist.Script(a, b)
		for _, op := range script {
			if op.Kind == editdist.Match {
				continue
			}
			fmt.Printf("%s a[%d] b[%d]\n", op.Kind, op.APos, op.BPos)
		}
		fmt.Print(editdist.FormatAlignment(a, b, script, 72))
	case "mpc":
		res, err := runMPC(dist.AlgoEditMPC, p, a, b, nil, nil, *transportName, *workers, *traceOut, *statusAddr,
			func(p core.Params) (core.Result, error) { return core.EditMPC(a, b, p) })
		report(res, err, *verbose)
		if *verify {
			verifyEdit(a, b, res.Value)
		}
	case "hss":
		res, err := runMPC(dist.AlgoEditHSS, p, a, b, nil, nil, *transportName, *workers, *traceOut, *statusAddr,
			func(p core.Params) (core.Result, error) { return baseline.HSSEditMPC(a, b, p) })
		report(res, err, *verbose)
		if *verify {
			verifyEdit(a, b, res.Value)
		}
	case "ulam":
		ia, ib := distinctInts(a), distinctInts(b)
		fmt.Println(ulam.Exact(ia, ib, &ops))
	case "ulam-mpc":
		ia, ib := distinctInts(a), distinctInts(b)
		res, err := runMPC(dist.AlgoUlamMPC, p, nil, nil, ia, ib, *transportName, *workers, *traceOut, *statusAddr,
			func(p core.Params) (core.Result, error) { return core.UlamMPC(ia, ib, p) })
		report(res, err, *verbose)
		if *verify {
			exact := ulam.Exact(ia, ib, nil)
			fmt.Fprintf(os.Stderr, "exact=%d factor=%.4f\n", exact, factorOf(res.Value, exact))
		}
	case "lulam":
		d, win := ulam.Local(distinctInts(a), distinctInts(b), &ops)
		fmt.Printf("%d window=[%d,%d]\n", d, win.Gamma, win.Kappa)
	default:
		fmt.Fprintf(os.Stderr, "mpcdist: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
}

// runMPC dispatches an MPC run to the selected shuffle transport: local
// calls the in-process driver, tcp spawns a distributed session of worker
// processes and runs the same job across them (printing the bytes that
// actually crossed the wire). The two paths produce bit-identical results
// and model counters for the same seed.
//
// On tcp, traceOut enables the telemetry plane — every worker ships its
// buffered events at round barriers and the merged multi-process trace is
// written after the run — and statusAddr serves a live JSON snapshot of
// the session over HTTP while the job runs.
func runMPC(algo string, p core.Params, s, t []byte, pa, qa []int, transportName string, workers int,
	traceOut, statusAddr string, local func(core.Params) (core.Result, error)) (core.Result, error) {
	if transportName != "tcp" {
		if ckptDir == "" {
			return local(p)
		}
		// In-process run with durability: same store and resume semantics as
		// tcp, no transport — the job spec digest keys the manifest either way.
		store, err := checkpoint.Open(ckptDir)
		if err != nil {
			return core.Result{}, err
		}
		job := dist.FromParams(algo, p)
		job.S, job.T, job.P, job.Q = s, t, pa, qa
		digest, err := job.SpecDigest()
		if err != nil {
			return core.Result{}, err
		}
		saver, err := checkpoint.NewSaver(store, digest, algo, checkpoint.SaverOptions{
			Every:    ckptEvery,
			Resume:   ckptResume,
			Revision: buildinfo.Revision(),
		})
		if err != nil {
			return core.Result{}, err
		}
		p.Checkpointer = saver
		res, err := local(p)
		if err == nil {
			if ferr := saver.Flush(); ferr != nil {
				return res, ferr
			}
		}
		ckptSummary(saver.Status())
		return res, err
	}
	job := dist.FromParams(algo, p)
	job.S, job.T, job.P, job.Q = s, t, pa, qa
	if soakN > 0 {
		// Soak mode: N fresh sessions under rotating chaos seeds, each
		// checked bit-for-bit against the fault-free local digest. The
		// normal report afterwards comes from one more local run.
		err := dist.Soak(job, dist.SoakOptions{
			Workers:    workers,
			Iterations: soakN,
			Plan:       sessChaos,
			Transport:  sessTransport,
			Log:        os.Stderr,
		})
		if err != nil {
			return core.Result{}, err
		}
		fmt.Fprintf(os.Stderr, "mpcdist: soak ok: %d iterations, every session bit-identical to the local run\n", soakN)
		return local(p)
	}
	var store *checkpoint.Store
	if ckptDir != "" {
		var err error
		if store, err = checkpoint.Open(ckptDir); err != nil {
			return core.Result{}, err
		}
	}
	sess, err := dist.NewSession(dist.SessionOptions{
		Workers:          workers,
		Observer:         p.Observer,
		Telemetry:        traceOut != "",
		Transport:        sessTransport,
		NetChaos:         sessChaos,
		Checkpoint:       store,
		CheckpointEvery:  ckptEvery,
		CheckpointResume: ckptResume,
	})
	if err != nil {
		return core.Result{}, err
	}
	defer sess.Close()
	if statusAddr != "" {
		srv, serr := dist.StartStatus(statusAddr, func() any {
			return dist.StatusWithCheckpoint{Status: sess.Status(), Checkpoint: sess.CheckpointStatus()}
		})
		if serr != nil {
			return core.Result{}, serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mpcdist: status endpoint at http://%s/status\n", srv.Addr)
	}
	res, err := sess.Run(job)
	st := sess.Stats()
	fmt.Fprintf(os.Stderr, "mpcdist: transport=tcp workers=%d/%d wire: out=%dB in=%dB frames=%d exchanges=%d peersLost=%d reassigns=%d reconnects=%d corruptFrames=%d\n",
		sess.Alive(), sess.Workers(), st.BytesOut, st.BytesIn, st.Frames, st.Exchanges, st.PeersLost, st.Reassigns, st.Reconnects, st.CorruptFrames)
	if cs := sess.CheckpointStatus(); cs != nil {
		ckptSummary(*cs)
	}
	if traceOut != "" {
		// Write the trace even after a failed run — the lanes up to the
		// failure are exactly what one wants to look at.
		ct, terr := sess.ClusterTrace()
		if terr == nil {
			terr = traceio.WriteFile(traceOut, ct)
		}
		if terr != nil && err == nil {
			return res, terr
		}
		if terr == nil {
			fmt.Fprintf(os.Stderr, "mpcdist: wrote merged cluster trace to %s (open in Perfetto or chrome://tracing)\n", traceOut)
		}
	}
	return res, err
}

// chromeTrace and tracePath are set when -trace targets an MPC run; die
// flushes the trace before exiting so a failed round is still viewable.
var (
	chromeTrace *trace.Chrome
	tracePath   string
)

// flightDump is ArmFlight's finalizer; die runs it so os.Exit cannot
// skip the exit dump a caller asked for via MPCDIST_FLIGHT_OUT.
var flightDump = func() {}

// Session knobs bound from flags in main, consumed by runMPC: the soak
// iteration count, the transport liveness options, the link-chaos plan,
// and the checkpoint store configuration.
var (
	soakN         int
	sessTransport transport.Options
	sessChaos     *netchaos.Plan
	ckptDir       string
	ckptEvery     int
	ckptResume    bool
)

// ckptSummary prints the run's checkpoint progress. The "mpcdist:" prefix
// keeps the line out of deterministic output comparisons (CI filters it).
func ckptSummary(cs checkpoint.Status) {
	fmt.Fprintf(os.Stderr, "mpcdist: checkpoint: job=%.12s steps=%d resumed=%d saved=%d lastRound=%d store: blobs=%d bytes=%d\n",
		cs.Job, cs.Steps, cs.Resumed, cs.Saves, cs.LastRound, cs.StoreBlobs, cs.StoreBytes)
}

func die(format string, args ...any) {
	flushTrace()
	flightDump()
	fmt.Fprintf(os.Stderr, "mpcdist: "+format+"\n", args...)
	os.Exit(1)
}

// flushTrace writes the collected Chrome trace once; it clears the
// exporter first so a write failure inside die cannot recurse. traceio
// surfaces create/write/sync/close failures and removes a partial file,
// so a flush error always exits nonzero instead of leaving a truncated
// trace that Perfetto would render as an empty timeline.
func flushTrace() {
	chrome, path := chromeTrace, tracePath
	chromeTrace = nil
	if chrome == nil {
		return
	}
	if err := traceio.WriteFile(path, chrome); err != nil {
		die("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mpcdist: wrote trace to %s (open in Perfetto or chrome://tracing)\n", path)
}

// distinctInts parses a sequence and rejects repeated characters, which
// the Ulam kernels require (they panic otherwise).
func distinctInts(b []byte) []int {
	s := parseInts(b)
	if err := ulam.CheckDistinct(s); err != nil {
		die("%v", err)
	}
	return s
}

func input(s, file string) []byte {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpcdist:", err)
			os.Exit(1)
		}
		return []byte(strings.TrimRight(string(data), "\n"))
	}
	return []byte(s)
}

func parseInts(b []byte) []int {
	fields := strings.FieldsFunc(string(b), func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t' || r == '\n'
	})
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcdist: bad integer %q\n", f)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}

func verifyEdit(a, b []byte, value int) {
	exact := editdist.Myers(a, b, nil)
	fmt.Fprintf(os.Stderr, "exact=%d factor=%.4f\n", exact, factorOf(value, exact))
}

func factorOf(value, exact int) float64 {
	if exact == 0 {
		if value == 0 {
			return 1
		}
		return float64(value)
	}
	return float64(value) / float64(exact)
}

func report(res core.Result, err error, verbose bool) {
	if err != nil {
		die("%v", err)
	}
	fmt.Println(res.Value)
	fmt.Fprintf(os.Stderr, "regime=%s guess=%d %s\n", res.Regime, res.Guess, res.Report)
	if verbose {
		for _, r := range res.Report.Rounds {
			fmt.Fprintf(os.Stderr, "  round %-20s machines=%-6d maxIn=%-8d maxOut=%-8d ops=%-10d crit=%-10d elapsed=%-12s straggler=%.2f\n",
				r.Name, r.Machines, r.MaxInWords, r.MaxOutWords, r.TotalOps, r.MaxMachineOps,
				r.Elapsed.Round(time.Microsecond), r.Skew.Straggler)
		}
	}
}
