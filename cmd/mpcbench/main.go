// Command mpcbench runs the workload bench suite on the simulated MPC
// cluster and records every deterministic model counter — op counts, comm
// words, rounds, machines, per-machine memory, and per-phase breakdowns —
// plus wall time, as a BENCH_<stamp>.json file. The counters are
// parallelism-independent, so two runs of the same suite at the same seed
// must agree exactly; -compare turns that into a regression gate.
//
// Usage:
//
//	mpcbench                          # run suite, write BENCH_<stamp>.json
//	mpcbench -out bench.json          # explicit output path
//	mpcbench -compare BENCH_baseline.json
//	                                  # run suite, diff deterministic
//	                                  # counters against the baseline;
//	                                  # exit 1 on any drift
//	mpcbench -sizes 256,512 -seed 2   # sweep shape
//	mpcbench -transport tcp -workers 3 -compare BENCH_baseline.json
//	                                  # the same gate on 3 worker processes,
//	                                  # shipping telemetry unless MPCDIST_FLIGHT=off
//	mpcbench -fault-crash 0.05 -out chaos.json
//	                                  # chaos mode: recovery is exact, so
//	                                  # every model counter still matches a
//	                                  # fault-free run; the failures/retries
//	                                  # fields record the recovery overhead.
//	                                  # -compare diffs those fields too, so
//	                                  # compare chaos runs against a baseline
//	                                  # recorded with the same -fault flags
//
// Wall time is recorded but never compared: the deterministic counters are
// the quantities the paper's Table 1 is stated in, and cmd/mpcperf owns
// wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mpcdist/internal/atomicio"
	"mpcdist/internal/buildinfo"
	"mpcdist/internal/dist"
	"mpcdist/internal/fault"
	"mpcdist/internal/harness"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/traceio"
	tnet "mpcdist/internal/transport"
)

func main() {
	dist.MaybeWorkerMain() // spawned worker processes re-exec this binary
	out := flag.String("out", "", "output path (default BENCH_<stamp>.json in the current directory)")
	compare := flag.String("compare", "", "baseline BENCH_*.json to diff deterministic counters against (exit 1 on drift)")
	sizes := flag.String("sizes", "", "comma-separated problem sizes (default 192,384)")
	seed := flag.Int64("seed", 1, "random seed (must match the baseline's when comparing)")
	eps := flag.Float64("eps", 0.5, "approximation slack epsilon")
	transport := flag.String("transport", "local", "shuffle transport: local (in-process) or tcp (real worker processes)")
	workers := flag.Int("workers", 2, "worker processes for -transport tcp")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the suite to this file; samples carry {algo, phase, round} labels for the Table 1 phase taxonomy, and one fixed large-distance edit case runs after the suite so every phase (partition, candidates, graph, chain) appears")
	profilerate := flag.Int("profilerate", 0, "CPU profile sampling rate in Hz (0 = runtime default of 100); driver-side phases like partition run for microseconds and need a high rate (e.g. 10000) to accrue samples")
	checkpointDir := flag.String("checkpoint-dir", "", "snapshot every case's rounds into this checkpoint store; the deterministic counters must still match a plain baseline, and the advisory checkpointSaves/checkpointBytes fields record the durability cost")
	version := flag.Bool("version", false, "print version information and exit")
	faults := fault.BindFlags(flag.CommandLine)
	transportOpts := tnet.BindFlags(flag.CommandLine)
	chaosPlan := netchaos.BindFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mpcbench"))
		return
	}

	// SIGQUIT mid-suite (or MPCDIST_FLIGHT_OUT at exit) dumps the flight
	// recorder; die() runs the finalizer so failures keep their black box.
	flightDump = traceio.ArmFlight("mpcbench")
	defer flightDump()

	topts, terr := transportOpts()
	if terr != nil {
		die(terr)
	}
	cfg := harness.BenchConfig{Seed: *seed, Eps: *eps, Faults: faults, CheckpointDir: *checkpointDir}
	chaos := chaosPlan()
	switch *transport {
	case "local":
		if chaos != nil {
			fmt.Fprintln(os.Stderr, "mpcbench: -netchaos-* flags require -transport tcp")
			os.Exit(2)
		}
	case "tcp":
		cfg.Cluster = &dist.SessionOptions{Workers: *workers, Transport: topts, NetChaos: chaos}
		if chaos != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: link chaos active: %s (counters must still match the clean baseline)\n", chaos)
		}
		fmt.Fprintf(os.Stderr, "mpcbench: running over tcp with %d workers (deterministic counters must still match a local baseline)\n", *workers)
	default:
		die(fmt.Errorf("unknown -transport %q (want local or tcp)", *transport))
	}
	if faults.Active() {
		fmt.Fprintf(os.Stderr, "mpcbench: fault injection active: %s (failures/retries will be nonzero; compare against a faulted baseline)\n", faults)
	}
	if *sizes != "" {
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				die(fmt.Errorf("bad -sizes entry %q", f))
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	var profFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		if *profilerate > 0 {
			// Must precede StartCPUProfile, whose own SetCPUProfileRate(100)
			// then no-ops with a runtime warning on stderr; profiling
			// proceeds at the requested rate. This is the documented
			// workaround for the fixed default rate.
			runtime.SetCPUProfileRate(*profilerate)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		profFile = f
	}

	file, err := harness.RunBench(cfg)

	// Stop and flush the profile before acting on the suite's outcome so
	// it survives a failed run or a later -compare drift exit; the profile
	// covers exactly the suite, not the comparison bookkeeping.
	if profFile != nil {
		// The suite's planted workloads never leave the small-distance
		// regime, so drive one large-distance case through the guess
		// ladder while still profiling: it is the sample source for the
		// partition and graph labels. Its counters are deliberately not
		// recorded — the bench output is identical with or without
		// -cpuprofile.
		if _, xerr := harness.ExercisePhases(*seed); xerr != nil {
			die(fmt.Errorf("phase exercise case: %w", xerr))
		}
		pprof.StopCPUProfile()
		if cerr := profFile.Close(); cerr != nil {
			die(cerr)
		}
		fmt.Fprintf(os.Stderr, "mpcbench: wrote CPU profile to %s (go tool pprof -tags shows the algo/phase label breakdown)\n", *cpuprofile)
	}
	if err != nil {
		die(err)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("20060102-150405") + ".json"
	}
	if err := writeBench(path, file); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "mpcbench: wrote %d results to %s\n", len(file.Results), path)

	if *compare == "" {
		return
	}
	base, err := readBench(*compare)
	if err != nil {
		die(err)
	}
	if diffs := harness.CompareBench(base, file); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "mpcbench: drift:", d)
		}
		die(fmt.Errorf("%d deterministic counter(s) drifted vs %s", len(diffs), *compare))
	}
	fmt.Fprintf(os.Stderr, "mpcbench: all %d cases match %s exactly\n", len(file.Results), *compare)
}

// flightDump is ArmFlight's finalizer; die runs it so os.Exit cannot
// skip the exit dump a caller asked for via MPCDIST_FLIGHT_OUT.
var flightDump = func() {}

func die(err error) {
	flightDump()
	fmt.Fprintln(os.Stderr, "mpcbench:", err)
	os.Exit(1)
}

func writeBench(path string, file harness.BenchFile) error {
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	// Atomic: a crash (or full disk) mid-write must not replace a previous
	// baseline with a truncated JSON that -compare would reject.
	return atomicio.WriteFile(path, append(buf, '\n'), 0o644)
}

func readBench(path string) (harness.BenchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return harness.BenchFile{}, err
	}
	var file harness.BenchFile
	if err := json.Unmarshal(buf, &file); err != nil {
		return harness.BenchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}
