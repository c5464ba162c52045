// Command mpcserve runs the HTTP/JSON distance-query service: the
// repository's sequential, approximate, and MPC-simulated kernels behind
// a batched, cached, bounded-concurrency front end.
//
// Usage:
//
//	mpcserve -addr :8080 -pool 8 -cache 4096 -timeout 30s -ops :8081
//
// Endpoints (see docs/SERVER.md for the full reference):
//
//	POST /v1/distance    {"algo":"edit","a":"kitten","b":"sitting"}
//	                     (?trace=1 attaches a Chrome trace of the MPC run)
//	POST /v1/batch       {"queries":[...]} -> NDJSON stream
//	GET  /v1/algorithms  supported algorithms
//	GET  /metrics        Prometheus text exposition (?format=json for JSON)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining or overloaded)
//
// With -ops a second listener serves /debug/pprof/, /metrics, /version,
// the flight recorder (/flight, /debug/flight) and, with -transport tcp,
// the cluster's live transport.Status at /status — what cmd/mpctop polls
// — for operators only. Requests are logged as structured lines (text by
// default, -log json for JSON) tagged with X-Request-Id.
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM; /readyz flips to 503 as soon as draining starts so load
// balancers stop routing here.
//
// Overload and robustness controls (on by default, 0 disables):
//
//	-degrade 1s      fall back to an exact sequential kernel when an
//	                 MPC query is about to miss its deadline
//	                 (answers marked "degraded": true)
//	-shed-queue 256  reject with 429 + Retry-After once this many
//	                 requests queue for the worker pool
//	-shed-wait 0     also shed after queueing this long (off by default)
//	-fault-*         inject the deterministic fault schedule of
//	                 internal/fault into MPC queries (testing/chaos)
//
// Distributed mode: -transport tcp -workers N re-execs this binary N
// times as cluster workers and routes every MPC query (ulam-mpc,
// edit-mpc, edit-hss, lcs-mpc; non-trace) across them. Answers gain
// "distributed": true plus per-worker report rows, and /metrics gains
// mpcserve_transport_* (live wire/liveness gauges) and mpcserve_worker_*
// (per-party attribution counters) series. Distances and deterministic
// report counters are bit-identical to local mode.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
	"mpcdist/internal/fault"
	"mpcdist/internal/server"
	"mpcdist/internal/traceio"
	"mpcdist/internal/transport"
)

func main() {
	// Worker re-exec: when spawned by a tcp-session parent this process is
	// a cluster worker, not a server; MaybeWorkerMain never returns then.
	dist.MaybeWorkerMain()

	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "max concurrently executing kernels (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 4096, "LRU result-cache capacity in answers (negative = off)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request compute timeout")
	maxInput := flag.Int("max-input", 1<<20, "max bytes per string / elements per sequence")
	maxBatch := flag.Int("max-batch", 1024, "max queries per batch request")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
	ops := flag.String("ops", "", "operator listen address for pprof, metrics, flight recorder and cluster status (empty = off)")
	logFormat := flag.String("log", "text", "request-log format: text, json, or off")
	degrade := flag.Duration("degrade", time.Second, "deadline slice reserved for the sequential fallback (0 = no degradation)")
	shedQueue := flag.Int("shed-queue", 256, "shed with 429 once this many requests queue for the pool (0 = off)")
	shedWait := flag.Duration("shed-wait", 0, "shed with 429 after queueing this long for a pool slot (0 = off)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After value on 429 responses")
	transportName := flag.String("transport", "local", "MPC execution transport: local (in-process) or tcp (worker cluster)")
	workers := flag.Int("workers", 3, "worker processes for -transport tcp")
	checkpointDir := flag.String("checkpoint-dir", "", "durable checkpoint store for batch MPC queries (empty = off)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "persist checkpoints every N completed rounds")
	version := flag.Bool("version", false, "print version and exit")
	faults := fault.BindFlags(flag.CommandLine)
	transportOpts := transport.BindFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("mpcserve"))
		return
	}

	// Arm the always-on flight recorder: SIGQUIT dumps it, degraded
	// fallback and MPC retry exhaustion trigger automatic dumps, and
	// MPCDIST_FLIGHT_OUT opts into a final dump at clean shutdown.
	flightDump := traceio.ArmFlight("mpcserve")
	defer flightDump()

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = nil
	default:
		log.Fatalf("mpcserve: -log must be text, json, or off (got %q)", *logFormat)
	}

	topts, terr := transportOpts()
	if terr != nil {
		log.Fatalf("mpcserve: %v", terr)
	}
	if *checkpointEvery < 1 {
		log.Fatalf("mpcserve: -checkpoint-every must be >= 1, got %d", *checkpointEvery)
	}

	// Batch MPC queries checkpoint into the store on either transport: the
	// server opens each job's saver, and a restarted mpcserve resumes
	// completed rounds instead of recomputing them.
	var ckptStore *checkpoint.Store
	if *checkpointDir != "" {
		var err error
		ckptStore, err = checkpoint.Open(*checkpointDir)
		if err != nil {
			log.Fatalf("mpcserve: %v", err)
		}
		log.Printf("mpcserve: checkpointing batch MPC queries to %s (every %d rounds)", *checkpointDir, *checkpointEvery)
	}

	var distRunner server.DistRunner
	switch *transportName {
	case "local":
	case "tcp":
		sess, err := dist.NewSession(dist.SessionOptions{Workers: *workers, Transport: topts})
		if err != nil {
			log.Fatalf("mpcserve: starting worker cluster: %v", err)
		}
		defer sess.Close()
		distRunner = sess
		log.Printf("mpcserve: distributed mode: %d worker processes (MPC queries run on the cluster)", *workers)
	default:
		log.Fatalf("mpcserve: -transport must be local or tcp (got %q)", *transportName)
	}

	srv := server.New(server.Config{
		PoolSize:        *pool,
		CacheSize:       *cache,
		RequestTimeout:  *timeout,
		MaxInputLen:     *maxInput,
		MaxBatch:        *maxBatch,
		Logger:          logger,
		DegradeReserve:  *degrade,
		ShedQueue:       *shedQueue,
		ShedWait:        *shedWait,
		RetryAfter:      *retryAfter,
		Faults:          faults,
		Dist:            distRunner,
		Checkpoint:      ckptStore,
		CheckpointEvery: *checkpointEvery,
	})
	if faults.Active() {
		log.Printf("mpcserve: fault injection active: %s", faults)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("mpcserve: listening on %s", *addr)

	var opsSrv *http.Server
	if *ops != "" {
		opsSrv = &http.Server{
			Addr:              *ops,
			Handler:           srv.OpsHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mpcserve: ops listener: %v", err)
			}
		}()
		log.Printf("mpcserve: ops (pprof, metrics, flight recorder, status) on %s", *ops)
	}

	select {
	case err := <-errCh:
		log.Fatalf("mpcserve: %v", err)
	case <-ctx.Done():
	}

	srv.SetDraining(true) // /readyz now reports 503 so traffic stops routing here
	log.Printf("mpcserve: shutting down (draining up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mpcserve: shutdown: %v", err)
	}
	if opsSrv != nil {
		_ = opsSrv.Shutdown(shutdownCtx)
	}
	snap := srv.Metrics().Snapshot()
	fmt.Printf("mpcserve: served %d requests (%d errors, %d timeouts, %d batches, %d degraded, %d shed)\n",
		snap.Requests, snap.Errors, snap.Timeouts, snap.Batches, snap.Degraded, snap.Shed)
}
