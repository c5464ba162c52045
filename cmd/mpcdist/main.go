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
//	mpcdist -algo mpc -afile a.txt -bfile b.txt -transport tcp -workers 3 \
//	        -trace cluster.json -status 127.0.0.1:8090
//	                      # every party's events in one trace, written at
//	                      # exit; a live JSON snapshot of the session (and
//	                      # pprof, /flight, /version) while it runs
//	mpcdist -algo ulam-mpc -a "3 1 4 5 2" -b "1 4 3 5 2" -soak 25 \
//	        -netchaos-corrupt 0.01 -netchaos-drop 0.005 -rejoin-grace 2s
//	                      # 25 fresh sessions under rotating link-fault
//	                      # seeds; every one must be bit-identical (-trace
//	                      # works here too; -status and -checkpoint-dir do
//	                      # not, as there is no one session to report on)
//
// Algorithms: exact, myers, bounded, diagonal, approx, script, mpc
// (Theorem 9), hss ([20] baseline), ulam (exact), ulam-mpc (Theorem 4),
// lulam.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpcdist/internal/approx"
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
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the MPC run (every party's lane on -transport tcp and -soak) to this file")
	transportName := flag.String("transport", "local", "shuffle transport: local (in-process) or tcp (real worker processes)")
	workers := flag.Int("workers", 2, "worker processes for -transport tcp")
	statusAddr := flag.String("status", "", "serve a live JSON session snapshot at this address (host:port; -transport tcp only)")
	soak := flag.Int("soak", 0, "replay the job across this many fresh tcp sessions under rotating -netchaos-* seeds, asserting bit-identical results every time (requires an MPC algorithm)")
	checkpointDir := flag.String("checkpoint-dir", "", "snapshot every completed MPC round into this checkpoint store (see docs/CHECKPOINT.md)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "persist checkpoints every N rounds (with -checkpoint-dir)")
	resume := flag.Bool("resume", false, "fast-forward rounds already checkpointed for this job spec in -checkpoint-dir")
	version := flag.Bool("version", false, "print version information and exit")
	faults := fault.BindFlags(flag.CommandLine)
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

	// The CLI's MPC algorithms and the dist.Job each one runs as; every
	// flag that needs a cluster run checks this one map.
	jobAlgo, isMPC := map[string]string{
		"mpc": dist.AlgoEditMPC, "hss": dist.AlgoEditHSS, "ulam-mpc": dist.AlgoUlamMPC,
	}[*algo]
	requireMPC := func(flagName string) {
		if !isMPC {
			die("%s requires an MPC algorithm (mpc, hss, ulam-mpc), not %q", flagName, *algo)
		}
	}
	if *soak < 0 {
		die("-soak must be >= 0, got %d", *soak)
	}
	if *checkpointEvery < 1 {
		die("-checkpoint-every must be >= 1, got %d", *checkpointEvery)
	}
	if *soak > 0 {
		requireMPC("-soak")
		if *statusAddr != "" {
			die("-status is incompatible with -soak (each soak iteration opens and closes its own session)")
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
		requireMPC("-transport tcp")
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
		requireMPC("-checkpoint-dir")
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

	a := input(*aStr, *aFile)
	b := input(*bStr, *bFile)
	var ops stats.Ops
	p := core.Params{X: *x, Eps: *eps, Seed: *seed, Faults: faults}
	if faults.Active() {
		requireMPC("-fault-*")
		fmt.Fprintf(os.Stderr, "mpcdist: fault injection active: %s\n", faults)
	}
	if *traceOut != "" {
		requireMPC("-trace")
		// The process log keeps every event from here on, and a session
		// opened later has its workers ship theirs into it; die and the
		// normal exit write its trace.
		tracePath = *traceOut
		trace.Flight().Keep()
	}
	defer flushTrace()

	// Validate flags up front so bad input exits with a message, not a
	// panic: the MPC exponent range depends on the algorithm (Theorem 4
	// vs Theorem 9), and the Ulam kernels require distinct characters.
	switch *algo {
	case "mpc", "hss", "ulam-mpc":
		maxX := core.MaxXHalf
		if *algo == "mpc" {
			maxX = core.MaxXEdit
		}
		if err := core.CheckParams(*x, *eps, maxX); err != nil {
			die("%v for -algo %s", err, *algo)
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
	case "mpc", "hss", "ulam-mpc":
		job := dist.FromParams(jobAlgo, p)
		if jobAlgo == dist.AlgoUlamMPC {
			job.P, job.Q = distinctInts(a), distinctInts(b)
		} else {
			job.S, job.T = a, b
		}
		var saver *checkpoint.Saver
		if *checkpointDir != "" {
			store, err := checkpoint.Open(*checkpointDir)
			if err == nil {
				saver, err = job.OpenSaver(store, checkpoint.SaverOptions{Every: *checkpointEvery, Resume: *resume})
			}
			if err != nil {
				die("%v", err)
			}
		}
		var cluster *dist.SessionOptions
		if *transportName == "tcp" {
			cluster = &dist.SessionOptions{Workers: *workers, Transport: topts, NetChaos: chaos}
		}
		res, err := runMPC(job, saver, cluster, *soak, *statusAddr)
		if saver != nil {
			ckptSummary(saver.Status())
		}
		report(res, err, *verbose)
		if *verify {
			verifyMPC(job, res.Value)
		}
	case "ulam":
		ia, ib := distinctInts(a), distinctInts(b)
		fmt.Println(ulam.Exact(ia, ib, &ops))
	case "lulam":
		d, win := ulam.Local(distinctInts(a), distinctInts(b), &ops)
		fmt.Printf("%d window=[%d,%d]\n", d, win.Gamma, win.Kappa)
	default:
		fmt.Fprintf(os.Stderr, "mpcdist: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
}

// runMPC runs the job with the selected shuffle transport: cluster == nil
// runs it in-process; otherwise it spawns a distributed session of worker
// processes and runs the same job across them (printing the bytes that
// actually crossed the wire), and statusAddr serves a live JSON snapshot
// of the session over HTTP while the job runs. The two paths produce
// bit-identical results and model counters for the same seed, and
// checkpoint into saver (nil = no durability) alike.
func runMPC(job dist.Job, saver *checkpoint.Saver, cluster *dist.SessionOptions, soak int,
	statusAddr string) (core.Result, error) {
	if cluster == nil {
		return job.Run(core.Params{}, saver)
	}
	if soak > 0 {
		// Soak mode: N fresh sessions under rotating chaos seeds, each
		// checked bit-for-bit against the fault-free local digest. The
		// normal report afterwards comes from one more local run.
		err := dist.Soak(job, dist.SoakOptions{Session: *cluster, Iterations: soak, Log: os.Stderr})
		if err != nil {
			return core.Result{}, err
		}
		fmt.Fprintf(os.Stderr, "mpcdist: soak ok: %d iterations, every session bit-identical to the local run\n", soak)
		return job.Run(core.Params{}, nil)
	}
	sess, err := dist.NewSession(*cluster)
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
	res, err := sess.RunSaved(job, saver)
	st := sess.Stats()
	fmt.Fprintf(os.Stderr, "mpcdist: transport=tcp workers=%d/%d wire: out=%dB in=%dB frames=%d exchanges=%d peersLost=%d reassigns=%d reconnects=%d corruptFrames=%d\n",
		sess.Alive(), sess.Workers(), st.BytesOut, st.BytesIn, st.Frames, st.Exchanges, st.PeersLost, st.Reassigns, st.Reconnects, st.CorruptFrames)
	return res, err
}

// tracePath is set by -trace; die and the normal exit flush the trace, so
// a failed round is still viewable.
var tracePath string

// flightDump is ArmFlight's finalizer; die runs it so os.Exit cannot
// skip the exit dump a caller asked for via MPCDIST_FLIGHT_OUT.
var flightDump = func() {}

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

// flushTrace writes the requested trace once; it clears the path first so
// a write failure inside die cannot recurse. traceio surfaces
// create/write/sync/close failures and removes a partial file, so a flush
// error always exits nonzero instead of leaving a truncated trace that
// Perfetto would render as an empty timeline.
func flushTrace() {
	path := tracePath
	tracePath = ""
	if path == "" {
		return
	}
	if err := traceio.WriteFile(path, trace.Flight().Trace()); err != nil {
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

// verifyMPC prints the exact distance and the factor of the job's answer.
func verifyMPC(job dist.Job, value int) {
	var exact int
	if job.Algo == dist.AlgoUlamMPC {
		exact = ulam.Exact(job.P, job.Q, nil)
	} else {
		exact = editdist.Myers(job.S, job.T, nil)
	}
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
