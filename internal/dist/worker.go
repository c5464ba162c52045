package dist

import (
	"errors"
	"fmt"
	"os"
	"strconv"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// Environment variables that turn a freshly exec'd copy of the current
// binary into a worker process (see MaybeWorkerMain).
const (
	// EnvWorkerAddr carries the coordinator's listen address; its presence
	// is what marks the process as a worker.
	EnvWorkerAddr = "MPCDIST_WORKER_ADDR"
	// EnvWorkerDieSeq (tests only) arms transport.Options.TestDieAtSeq.
	EnvWorkerDieSeq = "MPCDIST_WORKER_DIE_SEQ"
	// EnvWorkerDieParty (tests only) arms transport.Options.TestDieAtParty.
	EnvWorkerDieParty = "MPCDIST_WORKER_DIE_PARTY"
	// EnvWorkerDropConnSeq (tests only) arms
	// transport.Options.TestDropConnAtSeq: the worker severs its own
	// connection at the given exchange and must rejoin within the grace.
	EnvWorkerDropConnSeq = "MPCDIST_WORKER_DROPCONN_SEQ"
	// EnvWorkerDropConnParty (tests only) arms
	// transport.Options.TestDropConnAtParty.
	EnvWorkerDropConnParty = "MPCDIST_WORKER_DROPCONN_PARTY"
)

// MaybeWorkerMain hijacks the process if it was spawned as a session
// worker (EnvWorkerAddr set): it runs the worker loop and exits, never
// returning. In a normal invocation it returns immediately. Call it first
// thing in main() — and in TestMain for packages whose tests start
// sessions, since the spawned binary is then the test binary itself.
func MaybeWorkerMain() {
	addr := os.Getenv(EnvWorkerAddr)
	if addr == "" {
		return
	}
	os.Exit(workerMain(addr))
}

// workerMain dials the coordinator at addr and serves jobs until the
// session shuts down, returning a process exit code. The liveness
// settings come from the coordinator's welcome; the MPCDIST_WORKER_* test
// knobs arm the transport's deterministic crash and link-drop options.
func workerMain(addr string) int {
	var opts transport.Options
	intEnv := func(key string, dst *int) bool {
		v := os.Getenv(key)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcdist worker: bad %s=%q\n", key, v)
			return false
		}
		*dst = n
		return true
	}
	ok := intEnv(EnvWorkerDieSeq, &opts.TestDieAtSeq) &&
		intEnv(EnvWorkerDieParty, &opts.TestDieAtParty) &&
		intEnv(EnvWorkerDropConnSeq, &opts.TestDropConnAtSeq) &&
		intEnv(EnvWorkerDropConnParty, &opts.TestDropConnAtParty)
	if !ok {
		return 1
	}
	w, err := transport.DialWorker(addr, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcdist worker:", err)
		return 1
	}
	defer w.Close()
	if err := Serve(w); err != nil {
		fmt.Fprintln(os.Stderr, "mpcdist worker:", err)
		return 1
	}
	return 0
}

// Serve runs the worker side of a session: receive a job spec, run the
// same deterministic driver the coordinator runs (executing only this
// party's share of each round's machines), ship the result digest, and
// repeat until the coordinator shuts the session down.
func Serve(w *transport.Worker) error {
	// The worker's own flight recorder labels its lane with the party the
	// handshake assigned, so a SIGQUIT dump of a worker process is
	// attributed correctly.
	if _, self := w.Parties(); self > 0 {
		trace.Flight().SetParty(self)
	}
	// When the coordinator's welcome asked for telemetry — which it does
	// whenever its event log records, the default — the transport drains
	// this process's log at each round barrier (plus job end) into
	// fTelemetry frames. The first drain, here, arms the log: from now on
	// it keeps every event until a drain has shipped it, and records even
	// with the flight recorder switched off.
	if w.TelemetryEnabled() {
		log := trace.Flight()
		log.Drain()
		w.SetTelemetrySource(log.Drain)
	}
	for {
		jb, err := w.NextJob()
		if errors.Is(err, transport.ErrShutdown) {
			return nil
		}
		if err != nil {
			return err
		}
		job, err := decodeJob(w.Codec(), jb)
		if err != nil {
			return fmt.Errorf("dist: decoding job: %w", err)
		}
		host := core.Params{Transport: w}
		if len(job.Resume) > 0 {
			// The coordinator resumed from a checkpoint: replay the shipped
			// prefix so this party fast-forwards the identical rounds and
			// the exchange sequence stays aligned.
			rp, err := checkpoint.NewReplayer(job.Resume)
			if err != nil {
				return fmt.Errorf("dist: job resume state: %w", err)
			}
			host.Checkpointer = rp
		}
		res, rerr := job.drive(host)
		if isTransportErr(rerr) {
			if errors.Is(rerr, transport.ErrShutdown) {
				return nil
			}
			return rerr
		}
		db, err := encodeValue(w.Codec(), digestOf(res, rerr))
		if err != nil {
			return err
		}
		if err := w.FinishJob(db); err != nil {
			return err
		}
	}
}
