package dist

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// SessionOptions configure a distributed session.
type SessionOptions struct {
	// Workers is the number of worker processes to spawn (>= 1).
	Workers int
	// Observer receives the coordinator's driver and transport events.
	// May be nil.
	Observer trace.Observer
	// Stderr is where spawned workers' stderr goes (default os.Stderr).
	Stderr io.Writer
	// WorkerEnv appends extra environment variables to spawned workers
	// (the tests use it to arm the deterministic die-at-exchange knob).
	WorkerEnv []string
	// Transport tunes the TCP liveness machinery (zero = defaults). Workers
	// adopt its heartbeat interval, peer deadline and rejoin grace from
	// the welcome frame, so both sides run the same liveness config.
	Transport transport.Options
	// NetChaos, when non-nil and active, wraps every coordinator-side
	// connection (initial and rejoin) with the deterministic link-fault
	// injector. Read-path corruption means worker->coordinator frames are
	// perturbed too, so one-sided wrapping exercises both directions.
	// Strictly a wire-level perturbation: deterministic counters and
	// results are bit-identical under any plan.
	NetChaos *netchaos.Plan
	// Checkpoint, when non-nil, snapshots every completed round of each job
	// Run executes into the store, keyed by the job's SpecDigest (RunSaved
	// takes a saver the caller opened instead; only Run reads these four
	// fields). Workers receive the coordinator's resume state inside the
	// job spec, so all parties fast-forward the same prefix.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the flush cadence in rounds (<= 0 means 1).
	CheckpointEvery int
	// CheckpointResume fast-forwards each job past rounds a previous run
	// already persisted; without it an existing checkpoint is overwritten.
	CheckpointResume bool
	// OnCheckpointFlush, when non-nil, observes each durable flush (the
	// server's metrics hook). Called from the driver goroutine; keep cheap.
	OnCheckpointFlush func(steps int, bytes int64)
}

// Session is a running distributed cluster: this process is the
// coordinator (party 0) plus Workers spawned worker processes. Jobs run
// one at a time; the session survives across jobs and is torn down by
// Close.
//
// The session's trace is the process log (trace.Flight): its workers
// ship their events into it whenever it records, and Close ends its
// transport lane with one peer-stats instant per worker. A binary that
// wants the whole session in its trace calls trace.Flight().Keep() before
// NewSession and writes trace.Flight().Trace() after Close.
type Session struct {
	mu   sync.Mutex
	co   *transport.Coordinator
	ln   net.Listener
	cmds []*exec.Cmd
	opts SessionOptions

	// ckMu guards saver separately from mu: Status endpoints read it while
	// RunSaved holds mu for the whole job.
	ckMu  sync.Mutex
	saver *checkpoint.Saver
}

// NewSession listens on a loopback port, re-execs this binary Workers
// times as worker processes (see MaybeWorkerMain), and completes the
// registration handshake with each.
func NewSession(opts SessionOptions) (*Session, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("dist: need at least 1 worker, got %d", opts.Workers)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: locating own binary: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	stderr := opts.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	s := &Session{ln: ln, opts: opts}
	for i := 0; i < opts.Workers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), EnvWorkerAddr+"="+ln.Addr().String())
		cmd.Env = append(cmd.Env, opts.WorkerEnv...)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			s.kill()
			ln.Close()
			return nil, fmt.Errorf("dist: spawning worker %d: %w", i+1, err)
		}
		s.cmds = append(s.cmds, cmd)
	}
	topts := opts.Transport
	if opts.NetChaos.Active() {
		topts.WrapConn = netchaos.New(opts.NetChaos).Wrap
	}
	if opts.Observer != nil {
		topts.OnEvent = opts.Observer.Transport
	}
	co, err := transport.NewCoordinator(ln, opts.Workers, topts)
	if err != nil {
		s.kill()
		ln.Close()
		return nil, err
	}
	s.co = co
	return s, nil
}

// Run executes one job across the session, checkpointing it into
// SessionOptions.Checkpoint when one is set. Unusable prior state (a torn
// manifest, a corrupt blob) surfaces as its typed checkpoint error; the
// caller decides whether to restart fresh.
func (s *Session) Run(job Job) (core.Result, error) {
	var saver *checkpoint.Saver
	if s.opts.Checkpoint != nil {
		var err error
		saver, err = job.OpenSaver(s.opts.Checkpoint, checkpoint.SaverOptions{
			Every:   s.opts.CheckpointEvery,
			Resume:  s.opts.CheckpointResume,
			OnFlush: s.opts.OnCheckpointFlush,
		})
		if err != nil {
			return core.Result{}, err
		}
	}
	return s.RunSaved(job, saver)
}

// RunSaved executes one job across the session with a saver the caller
// opened (nil = no durability): broadcast the spec, run the driver here as
// party 0 over the coordinator transport, cross-check every surviving
// worker's result digest against our own, then persist the saver's tail.
// Deterministic driver errors (including injected-fault crashes) are part
// of the digest — workers must land on the identical error.
func (s *Session) RunSaved(job Job, saver *checkpoint.Saver) (core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	host := core.Params{Observer: s.opts.Observer, Transport: s.co}
	if saver != nil {
		// The resume state ships inside the spec, so workers fast-forward
		// the same prefix.
		var err error
		if job.Resume, err = saver.ResumeState(); err != nil {
			return core.Result{}, err
		}
		host.Checkpointer = saver
	}
	s.ckMu.Lock()
	s.saver = saver
	s.ckMu.Unlock()
	jb, err := encodeValue(s.co.Codec(), job)
	if err != nil {
		return core.Result{}, err
	}
	if err := s.co.StartJob(jb); err != nil {
		return core.Result{}, err
	}
	// Per-peer wire counters at job start, so the job's traffic can be
	// attributed to the report's per-worker rows as a delta.
	base := s.co.Status().Peers
	res, rerr := job.drive(host)
	if isTransportErr(rerr) {
		// The session itself broke (divergence, total peer loss): workers
		// may be stuck at a barrier and will only unwind at Close's
		// shutdown, so don't wait for digests.
		return res, rerr
	}
	digests, gerr := s.co.Results()
	s.fillWireBytes(&res, base)
	if gerr != nil {
		return res, gerr
	}
	want := digestOf(res, rerr)
	for w, db := range digests {
		if db == nil {
			continue // worker lost mid-job; its machines were reassigned
		}
		got, derr := decodeDigest(s.co.Codec(), db)
		if derr != nil {
			return res, fmt.Errorf("dist: worker %d result: %w", w+1, derr)
		}
		if got != want {
			return res, fmt.Errorf("dist: worker %d diverged: %+v, coordinator %+v", w+1, got, want)
		}
	}
	if rerr == nil && saver != nil {
		// Only the coordinator persists, so a failed flush is not part of
		// the digest: it is reported after the cross-check.
		rerr = saver.Flush()
	}
	return res, rerr
}

// isTransportErr reports whether err came from the transport layer rather
// than the deterministic computation.
func isTransportErr(err error) bool {
	var d *transport.DivergenceError
	var p *transport.PeerLossError
	return errors.As(err, &d) || errors.As(err, &p) || errors.Is(err, transport.ErrShutdown)
}

// fillWireBytes stamps the report's per-worker rows with each party's
// connection traffic during the job (coordinator's view; the coordinator
// row gets the sum over all links). Advisory, like everything wall-clock.
func (s *Session) fillWireBytes(res *core.Result, base []transport.PeerStatus) {
	if len(res.Report.Workers) == 0 {
		return
	}
	cur := s.co.Status().Peers
	var total int64
	for i := range cur {
		d := cur[i].BytesIn + cur[i].BytesOut
		if i < len(base) {
			d -= base[i].BytesIn + base[i].BytesOut
		}
		total += d
		p := cur[i].Party
		if p < len(res.Report.Workers) {
			res.Report.Workers[p].WireBytes = d
		}
	}
	res.Report.Workers[0].WireBytes = total
}

// Workers reports how many workers the session started with.
func (s *Session) Workers() int { return s.opts.Workers }

// Alive reports how many workers are still responding.
func (s *Session) Alive() int { return s.co.Alive() }

// Stats reports the coordinator's transport counters (bytes on the wire,
// frames, exchanges, losses, reassignments).
func (s *Session) Stats() transport.Stats { return s.co.Stats() }

// Status snapshots the coordinator's live view of the session for the
// -status endpoint. Safe to call from any goroutine.
func (s *Session) Status() transport.Status { return s.co.Status() }

// CheckpointStatus snapshots the checkpoint progress of the current (or
// last) job, whichever of Run and RunSaved started it; nil when that job
// runs without a saver. Safe to call from any goroutine, including mid-job.
func (s *Session) CheckpointStatus() *checkpoint.Status {
	s.ckMu.Lock()
	saver := s.saver
	s.ckMu.Unlock()
	if saver == nil {
		return nil
	}
	st := saver.Status()
	return &st
}

// Close shuts the session down in order: log each worker's closing
// peer-stats instant (its wire bytes and heartbeat RTT p99), tell workers
// there are no more jobs, close the connections, and reap the worker
// processes (killing any that fail to exit promptly). Closing a closed
// session does nothing.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmds == nil {
		return nil
	}
	now := time.Now().UnixNano()
	var ps []trace.Event
	for _, p := range s.co.Status().Peers {
		ps = append(ps, trace.Event{Kind: trace.KindTransport,
			Detail: trace.TransportPeerStats, Peer: int32(p.Party),
			Words: p.BytesIn + p.BytesOut, QueueNs: int64(math.Round(p.RTTP99Ms * float64(time.Millisecond))), StartNs: now})
	}
	trace.FlightIngest(0, ps)
	s.co.Shutdown()
	s.ln.Close()
	for _, cmd := range s.cmds {
		if !waitTimeout(cmd, 10*time.Second) {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	s.cmds = nil
	return nil
}

// kill force-terminates spawned workers (handshake-failure cleanup).
func (s *Session) kill() {
	for _, cmd := range s.cmds {
		cmd.Process.Kill()
		cmd.Wait()
	}
	s.cmds = nil
}

// waitTimeout reaps cmd, giving up (without reaping) after d.
func waitTimeout(cmd *exec.Cmd, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
