// Package server exposes the repository's distance kernels — sequential
// and MPC-simulated — as a batched, cached HTTP/JSON query service. It is
// stdlib-only, like the rest of the module.
//
// Endpoints:
//
//	POST /v1/distance    one pair, any algorithm; ?trace=1 attaches a
//	                     Chrome trace of the MPC run to the answer
//	POST /v1/batch       many pairs, fanned across the worker pool,
//	                     results streamed back as NDJSON in completion order
//	GET  /v1/algorithms  supported algorithm names
//	GET  /metrics        request counts, latency histograms, cache and pool
//	                     stats, per-algorithm MPC report aggregates —
//	                     Prometheus text exposition (?format=json for the
//	                     JSON snapshot)
//	GET  /healthz        liveness (the process is up)
//	GET  /readyz         readiness (503 while draining or overloaded)
//
// OpsHandler serves the operator endpoints every status listener shares
// (dist.OpsHandler) plus a metrics copy, for a separate operator
// listener. Requests are tagged with X-Request-Id and logged through the
// configured slog.Logger.
//
// Robustness: a bounded worker pool shares the host's cores across
// requests, per-request timeouts propagate into the MPC simulator via
// context (cancellation is checked between rounds), input sizes are
// capped, handler panics are recovered to 500s, and repeated queries are
// served from an LRU cache keyed on (algorithm, input hash, parameters).
// Opt-in overload controls (Config.DegradeReserve / ShedQueue / ShedWait)
// add a degradation ladder — deadline-pressed MPC queries fall back to an
// exact sequential kernel marked degraded:true, and saturated queues shed
// requests with 429 + Retry-After — and Config.Faults injects the
// deterministic fault schedule of internal/fault into MPC queries, whose
// recovered retries surface in Answer.Retries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mpcdist"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/dist"
	"mpcdist/internal/fault"
	"mpcdist/internal/trace"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// PoolSize bounds concurrently executing kernels (0 = GOMAXPROCS).
	PoolSize int
	// CacheSize is the LRU capacity in answers (0 = 4096, negative = off).
	CacheSize int
	// RequestTimeout bounds one query's queue + compute time (0 = 30s).
	// Batch requests share a single timeout across all their queries.
	RequestTimeout time.Duration
	// MaxInputLen caps each input: bytes per string, elements per
	// sequence (0 = 1<<20).
	MaxInputLen int
	// MaxBatch caps the number of queries in one batch (0 = 1024).
	MaxBatch int
	// Logger receives structured request and query logs (nil = discard).
	Logger *slog.Logger

	// The remaining fields form the overload/degradation ladder; each is
	// opt-in (zero = off) so existing deployments keep strict
	// timeout-to-error behavior unless they ask for graceful degradation.

	// DegradeReserve, when > 0, reserves that slice of the request
	// deadline for a sequential fallback: an MPC query's job runs against
	// a deadline shortened by the reserve, and if it runs out while the
	// request itself is still alive, the algorithm's exact sequential
	// kernel produces the answer, marked degraded:true (never cached).
	DegradeReserve time.Duration
	// ShedQueue, when > 0, sheds a request with 429 before queueing if at
	// least this many requests are already waiting for a pool slot. It is
	// also the readiness threshold: /readyz reports 503 while the queue is
	// at or past it.
	ShedQueue int
	// ShedWait, when > 0, bounds how long a request may wait for a pool
	// slot before being shed with 429 (load turning into queueing delay
	// rather than queue length).
	ShedWait time.Duration
	// RetryAfter is the value of the Retry-After header on 429 responses
	// (0 = 1s).
	RetryAfter time.Duration
	// Faults, when non-nil and active, injects the deterministic fault
	// schedule, retry budget included, into every MPC query's cluster (see
	// internal/fault); the recovered retries surface in Answer.Retries and
	// the mpcserve_mpc_retries counters.
	Faults *fault.Plan
	// Dist, when non-nil, routes MPC queries (ulam-mpc, edit-mpc,
	// edit-hss, lcs-mpc; not ?trace=1) to a distributed worker cluster
	// instead of the in-process simulator. Answers are bit-identical either
	// way and marked distributed:true; /metrics grows mpcserve_transport_*
	// and mpcserve_worker_* series. The degradation ladder does not apply to
	// cluster runs — their resilience story is the transport's own
	// mid-round reassignment.
	Dist DistRunner
	// Checkpoint, when non-nil, snapshots the rounds of batch-originated
	// MPC queries into the store, keyed by job-spec digest, and
	// auto-resumes: a restarted mpcserve receiving the same batch
	// fast-forwards completed rounds instead of recomputing them. Only
	// batch queries checkpoint — they are the long-running, retried-on-
	// restart workload; interactive /v1/distance queries are cheaper to
	// recompute than to persist. The policy is the same in-process and on
	// Dist. The mpcserve_checkpoint_* metrics series record the seam's
	// activity.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the durable flush cadence in rounds (0 = 1).
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInputLen <= 0 {
		c.MaxInputLen = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the HTTP query service. Construct with New.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	metrics *Metrics
	mux     *http.ServeMux
	log     *slog.Logger
	// draining flips when graceful shutdown starts: /readyz reports 503 so
	// load balancers stop routing here while in-flight requests finish.
	draining atomic.Bool
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.PoolSize),
		cache:   NewCache(max(cfg.CacheSize, 0)),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		log:     slogOrDiscard(cfg.Logger),
	}
	s.mux.HandleFunc("POST /v1/distance", s.handleDistance)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// Handler returns the full middleware-wrapped handler: request-ID +
// access logging outermost (so a recovered panic still produces one
// access-log line with its request ID), panic recovery inside it.
func (s *Server) Handler() http.Handler {
	return s.logMiddleware(s.recoverMiddleware(s.mux))
}

// Metrics exposes the registry (for the binary's shutdown log and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// tooLargeError marks over-limit inputs that map to HTTP 413.
type tooLargeError struct{ msg string }

func (e tooLargeError) Error() string { return e.msg }

// statusFor maps an answer error to its HTTP status.
func statusFor(err error) int {
	var br badRequestError
	var tl tooLargeError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.As(err, &tl):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders an answer error; shed responses carry Retry-After so
// well-behaved clients back off instead of hammering an overloaded server.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}

// validate checks a query against the registry and limits, returning the
// resolved spec and MPC parameters.
func (s *Server) validate(q Query) (algoSpec, mpcdist.MPCParams, error) {
	spec, ok := algos[q.Algo]
	if !ok {
		return spec, mpcdist.MPCParams{}, badRequestf("unknown algorithm %q (see /v1/algorithms)", q.Algo)
	}
	if spec.Ints {
		if len(q.ASeq) > s.cfg.MaxInputLen || len(q.BSeq) > s.cfg.MaxInputLen {
			return spec, mpcdist.MPCParams{}, tooLargeError{msg: fmt.Sprintf(
				"sequence longer than the %d-element limit", s.cfg.MaxInputLen)}
		}
		// Reject repeats up front so every Ulam kernel sees valid input.
		for _, seq := range [][]int{q.ASeq, q.BSeq} {
			if err := mpcdist.CheckDistinct(seq); err != nil {
				return spec, mpcdist.MPCParams{}, badRequestError{msg: err.Error()}
			}
		}
	} else {
		if len(q.A) > s.cfg.MaxInputLen || len(q.B) > s.cfg.MaxInputLen {
			return spec, mpcdist.MPCParams{}, tooLargeError{msg: fmt.Sprintf(
				"string longer than the %d-byte limit", s.cfg.MaxInputLen)}
		}
	}
	p := mpcdist.MPCParams{X: q.X, Eps: q.Eps, Seed: q.Seed}
	if spec.MPC {
		if p.X == 0 {
			p.X = 0.25
		}
		if err := core.CheckParams(p.X, p.Eps, spec.MaxX); err != nil {
			return spec, p, badRequestf("%v for algorithm %q", err, q.Algo)
		}
		if (spec.Ints && len(q.ASeq) == 0 && len(q.BSeq) == 0) ||
			(!spec.Ints && len(q.A) == 0 && len(q.B) == 0) {
			return spec, p, badRequestf("MPC algorithm %q requires non-empty input", q.Algo)
		}
	}
	return spec, p, nil
}

// answer resolves one query and records its outcome.
func (s *Server) answer(ctx context.Context, q Query, wantTrace, resumable bool) (Answer, error) {
	start := time.Now()
	o := s.resolve(ctx, q, start, wantTrace, resumable)
	o.elapsed = time.Since(start)
	s.record(ctx, o)
	if o.err != nil {
		return Answer{}, o.err
	}
	return *o.answer, nil
}

// resolve runs one query: validation, cache lookup, pooled compute. With
// wantTrace the MPC run gets an event log of its own (concurrent requests
// share the process log), the answer embeds its trace, and the cache is
// bypassed both ways (a traced answer is never representative of, or
// reusable as, the plain one). resumable marks batch-originated queries,
// the ones the checkpoint seam persists and auto-resumes.
func (s *Server) resolve(ctx context.Context, q Query, start time.Time, wantTrace, resumable bool) outcome {
	spec, params, err := s.validate(q)
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{algo: q.Algo}
	if wantTrace && !spec.MPC {
		o.err = badRequestf("trace=1 requires an MPC algorithm, %q runs sequentially", q.Algo)
		return o
	}
	var tl *trace.Log
	if wantTrace {
		tl = trace.NewLog()
		tl.Keep()
		params.Observer = tl
	}
	if spec.MPC {
		params.Faults = s.cfg.Faults
	}

	key := q.CacheKey()
	if !wantTrace {
		if a, ok := s.cache.Get(key); ok {
			a.Cached = true
			o.answer = &a
			return o
		}
	}

	// Queue-length shed: past the threshold, more queueing only adds
	// latency for everyone, so reject immediately with a Retry-After.
	if s.cfg.ShedQueue > 0 && s.pool.Waiting() >= int64(s.cfg.ShedQueue) {
		o.err = ErrOverloaded
		return o
	}

	var a Answer
	if poolErr := s.pool.DoWithin(ctx, s.cfg.ShedWait, func() {
		a, o.ckpt, o.err = s.compute(ctx, spec, q, params, wantTrace, resumable)
	}); poolErr != nil {
		// Deadline, disconnect, or shed while queued: the kernel never ran.
		o.err = poolErr
		return o
	}
	if o.err != nil {
		return o
	}
	a.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if tl != nil {
		if a.Trace, o.err = tl.Trace().JSON(); o.err != nil {
			return o
		}
	} else if !a.Degraded {
		// A degraded answer is a deadline artifact, not the algorithm's
		// real output; caching it would serve an answer without the run's
		// report to unpressed future requests.
		s.cache.Put(key, a)
	}
	o.answer = &a
	return o
}

// compute runs the kernel inside a pool slot. Sequential kernels run
// directly; every MPC query runs as a dist.Job, on the cluster when one is
// attached and the query is untraced (the trace wants this process's event
// log), else in-process. Batch queries checkpoint on either path through
// one saver (batchSaver); compute returns its counters, read once when the
// job ends, and the answer's ResumedRounds comes from them. The
// degradation ladder applies only to in-process runs without a saver:
// with a DegradeReserve configured, the job gets the request deadline
// minus the reserve, and if it runs out while the request itself is still
// alive, the sequential fallback answers within the reserved slice,
// marked degraded. A cluster run recovers from worker loss by
// reassignment instead.
func (s *Server) compute(ctx context.Context, spec algoSpec, q Query, params mpcdist.MPCParams, wantTrace, resumable bool) (Answer, *CheckpointSnap, error) {
	if !spec.MPC {
		a, err := spec.run(q, params)
		return a, nil, err
	}
	job := dist.FromParams(q.Algo, params)
	job.S, job.T, job.P, job.Q = []byte(q.A), []byte(q.B), q.ASeq, q.BSeq
	var saver *checkpoint.Saver
	if resumable && s.cfg.Checkpoint != nil {
		saver = s.batchSaver(job)
	}
	distributed := s.cfg.Dist != nil && !wantTrace
	runCtx := ctx
	canDegrade := !distributed && saver == nil && spec.degrade != nil && s.cfg.DegradeReserve > 0 && !wantTrace
	if canDegrade {
		dl, ok := ctx.Deadline()
		if !ok {
			canDegrade = false // no deadline pressure, nothing to reserve
		} else {
			// A reduced deadline already past yields a done context: the
			// job stops at its first check and the fallback answers.
			var cancel context.CancelFunc
			runCtx, cancel = context.WithDeadline(ctx, dl.Add(-s.cfg.DegradeReserve))
			defer cancel()
		}
	}
	var res mpcdist.MPCResult
	var err error
	if distributed {
		// The cluster does not see the request's context: a request that
		// expired while queued must not start.
		if err = ctx.Err(); err == nil {
			res, err = s.cfg.Dist.RunSaved(job, saver)
		}
	} else {
		res, err = job.Run(mpcdist.MPCParams{Ctx: runCtx, Observer: params.Observer}, saver)
	}
	if err != nil && canDegrade && ctx.Err() == nil &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		// The job ran out of its reduced deadline but the request is still
		// alive: answer from the fallback within the reserve.
		d, err := spec.degrade(q)
		if err != nil {
			return Answer{}, nil, err
		}
		// A degraded answer means the job missed its deadline — exactly
		// the situation the flight recorder's retained window (straggling
		// rounds, queue waits, faults) exists to explain.
		trace.FlightTrigger("server: degraded fallback (" + q.Algo + ")")
		a := seqAnswer(q.Algo, "", d)
		a.Degraded = true
		return a, nil, nil
	}
	var ckpt *CheckpointSnap
	if saver != nil {
		saves, resumed, bytes := saver.Counters()
		ckpt = &CheckpointSnap{Saves: uint64(saves), ResumedSteps: uint64(resumed), BytesWritten: bytes}
	}
	if err != nil {
		return Answer{}, ckpt, err
	}
	a := mpcAnswer(q.Algo, res)
	a.Distributed = distributed
	if ckpt != nil {
		a.ResumedRounds = int(ckpt.ResumedSteps)
	}
	return a, ckpt, nil
}

// batchSaver opens a batch query's saver, auto-resuming any durable
// prefix. Unusable prior state (torn manifest, corrupt blob, diverged
// algorithm) is logged and the job's checkpoint restarts from scratch —
// the store heals on the next flush — so a broken store never fails a
// request; nil means the query runs without durability.
func (s *Server) batchSaver(job dist.Job) *checkpoint.Saver {
	opts := checkpoint.SaverOptions{Every: s.cfg.CheckpointEvery, Resume: true}
	saver, err := job.OpenSaver(s.cfg.Checkpoint, opts)
	if err != nil {
		s.log.Warn("checkpoint resume unusable, restarting job state",
			"algo", job.Algo, "error", err.Error())
		opts.Resume = false
		saver, err = job.OpenSaver(s.cfg.Checkpoint, opts)
	}
	if err != nil {
		s.log.Error("checkpoint store unusable, computing without durability",
			"algo", job.Algo, "error", err.Error())
		return nil
	}
	return saver
}

// record counts one query's outcome in the registry and writes its one
// log line, which carries the middleware's request ID so batch
// sub-queries correlate with their request's access-log line.
func (s *Server) record(ctx context.Context, o outcome) {
	s.metrics.update(o.count)
	attrs := []any{
		"requestId", RequestID(ctx),
		"algo", o.algo,
		"durationMs", float64(o.elapsed.Nanoseconds()) / 1e6,
	}
	if o.err != nil {
		s.log.Error("query failed", append(attrs, "error", o.err.Error())...)
		return
	}
	a := o.answer
	attrs = append(attrs, "distance", a.Distance, "cached", a.Cached)
	if a.Report != nil {
		attrs = append(attrs, "rounds", a.Report.Rounds, "machines", a.Report.MaxMachines)
	}
	s.log.Info("query", attrs...)
}

// reject records a body or batch the server refuses as one bad-input
// query and answers it.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, err error) {
	s.record(r.Context(), outcome{err: err})
	s.writeError(w, err)
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	var q Query
	if !s.decode(w, r, &q) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	a, err := s.answer(ctx, q, r.URL.Query().Get("trace") == "1", false)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.reject(w, r, badRequestf("empty batch"))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.reject(w, r, tooLargeError{msg: fmt.Sprintf(
			"batch of %d exceeds the %d-query limit", len(req.Queries), s.cfg.MaxBatch)})
		return
	}
	s.metrics.update(func(sn *Snapshot) { sn.Batches++ })

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Fan the queries across the pool; stream each line as it completes.
	// The pool (not the fan-out) bounds actual kernel concurrency.
	items := make(chan BatchItem)
	go func() {
		defer close(items)
		done := make(chan struct{}, len(req.Queries))
		for i, q := range req.Queries {
			go func(i int, q Query) {
				defer func() { done <- struct{}{} }()
				a, err := s.answer(ctx, q, false, true)
				if err != nil {
					items <- BatchItem{Index: i, Error: err.Error()}
					return
				}
				items <- BatchItem{Index: i, Answer: &a}
			}(i, q)
		}
		for range req.Queries {
			<-done
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for item := range items {
		if err := enc.Encode(item); err != nil {
			// Client went away; drain so the workers can finish.
			for range items {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"algorithms": Algorithms()})
}

// handleMetrics serves Prometheus text exposition by default (what
// scrapers expect) and the original JSON snapshot at ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.Cache = s.cache.Stats()
	snap.Pool = s.pool.Stats()
	if s.cfg.Dist != nil {
		snap.Transport = transportJSON(s.cfg.Dist.Status())
	}
	if s.cfg.Checkpoint != nil {
		if snap.Checkpoint == nil {
			snap.Checkpoint = &CheckpointSnap{}
		}
		ss := s.cfg.Checkpoint.Stats()
		snap.Checkpoint.StoreBlobs, snap.Checkpoint.StoreBytes = ss.Blobs, ss.Bytes
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_ = writePrometheus(w, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: liveness (/healthz) says the process
// is up, readiness says it should receive traffic. Not ready while
// draining (graceful shutdown) or while the pool queue is saturated past
// the shed threshold.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.cfg.ShedQueue > 0 && s.pool.Waiting() >= int64(s.cfg.ShedQueue):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "overloaded"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// SetDraining flips the readiness probe: call with true when graceful
// shutdown begins so load balancers stop routing new requests here while
// in-flight ones finish. Liveness (/healthz) is unaffected.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// maxBodyBytes caps a request body.
const maxBodyBytes = 64 << 20

// decode reads a body holding exactly one JSON value, with the size cap
// applied; on failure it rejects the request and returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(dst)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr == io.EOF {
			return true
		}
		err = errors.New("trailing data after the JSON value")
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		err = tooLargeError{msg: "bad request body: " + err.Error()}
	} else {
		err = badRequestError{msg: "bad request body: " + err.Error()}
	}
	s.reject(w, r, err)
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
