// Package mpc simulates the massively parallel computation (MPC) model of
// Karloff, Suri, and Vassilvitskii as used by the paper: a fleet of
// machines, each with a hard memory cap of S words, computing in
// synchronous rounds. Within a round a machine sees only its own input;
// between rounds machines exchange messages, and no machine may receive (or
// hold) more than S words.
//
// The simulator enforces the memory cap, counts the model quantities the
// paper's Table 1 is stated in — rounds, machines, per-machine memory,
// total computation, and critical-path ("parallel") computation — and runs
// machines concurrently on the host's cores.
//
// Randomness: machines can draw from a per-machine stream or from a shared
// stream ("a random variable with a common seed between machines",
// Algorithm 6 line 9); both are deterministic given Config.Seed, so
// simulations are reproducible regardless of goroutine scheduling.
//
// Observability: an optional trace.Observer on Config receives round and
// per-machine execution events (spans exclude semaphore queueing), which
// trace.Log records for Chrome trace-event timelines, telemetry and the
// flight recorder. With no observer registered the hooks are single nil
// checks.
package mpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"mpcdist/internal/fault"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// Payload is any unit of data shipped between machines. Words reports its
// memory footprint in machine words; the simulator uses it to enforce the
// per-machine cap.
type Payload = transport.Payload

// Config parameterizes a Cluster.
type Config struct {
	// MachineWords is the per-machine memory cap S in words. Zero means
	// unlimited (useful in unit tests of the algorithms themselves).
	MachineWords int
	// MaxMachines optionally caps the number of distinct machines usable in
	// a round; zero means unlimited.
	MaxMachines int
	// Parallelism bounds the number of simulated machines executing
	// concurrently; zero means GOMAXPROCS.
	Parallelism int
	// Seed feeds both the shared and the per-machine random streams.
	Seed int64
	// Ctx, when non-nil, cancels the simulation: Run checks it before the
	// round starts, before each machine executes, and before each replay
	// attempt, so a timed-out or abandoned request stops within one
	// machine's work (or one retry) rather than running the remaining
	// rounds to completion.
	Ctx context.Context
	// Observer, when non-nil, receives round and machine execution events
	// (see internal/trace). Observers must be safe for concurrent use;
	// a nil Observer costs one nil check per event site.
	Observer trace.Observer
	// Faults, when non-nil and active, injects the plan's deterministic
	// fault schedule into every round: machine crashes before or after
	// execution (recovered by exact replay — machine execution is a pure
	// function of (seed, round, machine, inputs)) and straggler delays.
	// Message loss belongs to a real wire: internal/netchaos injects it on
	// tcp runs and the transport recovers it. A nil or inactive plan
	// injects nothing, with zero behavioral drift. The plan's MaxRetries
	// bounds crash recovery (0 = DefaultMaxRetries).
	Faults *fault.Plan
	// Algo names the pipeline this cluster executes ("ulam-mpc",
	// "edit-mpc", ...). It is advisory observability metadata: it becomes
	// the "algo" goroutine profiler label on every simulated machine (see
	// internal/trace.PhaseLabels) and never feeds a counter. Empty is
	// fine; profiles then show algo=unlabeled.
	Algo string
	// Transport, when non-nil, is the shuffle transport the cluster runs
	// over (see internal/transport): machine ids are partitioned across
	// the transport's parties by input weight, each party executes its
	// share, and execution records are all-gathered at a per-round
	// barrier. Nil means the in-process transport (transport.Local) —
	// the single-party fast path, bit-identical to the seed simulator.
	// Every party of a distributed run must construct its cluster with an
	// otherwise-identical Config (same Seed, MachineWords, Faults, ...):
	// the SPMD contract.
	Transport transport.Transport
	// Checkpointer, when non-nil, is consulted at the start of every round
	// (fast-forwarding rounds that completed in a previous run) and handed
	// a snapshot after every completed round (see RoundSnapshot). Nil
	// means no durability — the seed behavior, bit-identical by the
	// determinism invariant either way.
	Checkpointer Checkpointer
}

// DefaultMaxRetries is the recovery budget used when the fault plan's
// MaxRetries is zero.
const DefaultMaxRetries = 3

// RoundStats records the measured model quantities of one round.
type RoundStats struct {
	Name          string
	Phase         trace.Phase // the paper phase the round implements
	Machines      int         // distinct machines that received input
	MaxInWords    int         // max words resident on a machine (input)
	MaxOutWords   int         // max words emitted by a machine
	TotalOps      int64       // sum of ops over machines
	MaxMachineOps int64       // max ops on one machine ("parallel time")
	CommWords     int64       // words shipped between machines after the round
	// Elapsed is the wall time of machine execution only: first machine
	// start to last machine end, with each machine's clock starting after
	// it acquires an execution slot. Semaphore queueing is excluded and
	// accounted separately in QueueWait.
	Elapsed time.Duration
	// QueueWait sums the time machines spent waiting for an execution
	// slot (the host's parallelism limit, not a model quantity).
	QueueWait time.Duration
	// Skew summarizes the per-machine execution-time distribution:
	// max/mean/p99 and the straggler ratio max/mean.
	Skew trace.SkewStats
	// Failures counts faults injected during the round (crashes and
	// straggler delays); Retries counts the machine replays that recovered
	// them. Both are 0 without an active fault plan. Faults never perturb
	// the deterministic counters above: only the successful attempt's ops
	// and outbox are counted, so a recovered run's stats are bit-identical
	// to the fault-free run's.
	Failures int
	Retries  int
}

// Report aggregates a cluster's history in the shape of a Table 1 row.
type Report struct {
	Rounds      []RoundStats
	NumRounds   int
	MaxMachines int   // max machines used in any round
	MaxWords    int   // max per-machine memory observed in any round
	TotalOps    int64 // total computation across all rounds and machines
	CriticalOps int64 // sum over rounds of the max per-machine ops
	CommWords   int64 // total communication volume (words) across rounds
	// Elapsed sums the rounds' machine-execution wall time; QueueWait sums
	// their semaphore waits (host effects, excluded from Elapsed).
	Elapsed   time.Duration
	QueueWait time.Duration
	// MaxStraggler is the worst per-round straggler ratio (max/mean
	// machine time); 0 when no round recorded machine times.
	MaxStraggler float64
	// Failures and Retries sum the rounds' fault and recovery counters;
	// both 0 on a fault-free cluster.
	Failures int
	Retries  int
	// Workers attributes the cluster's work to the parties of a
	// distributed run, by the deterministic machine assignment; empty on a
	// single-party run. Advisory rows: they are identical on every party
	// (the assignment is), but they are not part of the deterministic
	// result digest.
	Workers []WorkerStats
}

// WorkerStats is one party's share of a distributed run, attributed by
// the deterministic AssignMachines partition — machines reassigned after
// a mid-round loss still count against the party originally assigned
// them, keeping the rows identical on every party regardless of which
// process actually re-executed the work.
type WorkerStats struct {
	Party         int
	MachineRounds int   // machine-round executions assigned to this party
	Ops           int64 // elementary operations across those executions
	CommWords     int64 // words those machines emitted into the shuffle
	// QueueWait sums the machines' slot waits (host-level, advisory).
	QueueWait time.Duration
	Failures  int
	Retries   int
	// WireBytes is the party's connection traffic as seen by the
	// coordinator; filled by internal/dist after a session run, 0
	// otherwise. Advisory.
	WireBytes int64
}

// String renders the report as a summary line followed by one line per
// phase that ran (the Table 1 quantities resolved to paper phases).
func (r Report) String() string {
	s := fmt.Sprintf("rounds=%d machines=%d mem/machine=%d totalOps=%d criticalOps=%d comm=%d elapsed=%s",
		r.NumRounds, r.MaxMachines, r.MaxWords, r.TotalOps, r.CriticalOps, r.CommWords,
		r.Elapsed.Round(time.Microsecond))
	if r.Failures > 0 || r.Retries > 0 {
		s += fmt.Sprintf(" failures=%d retries=%d", r.Failures, r.Retries)
	}
	for _, ps := range Profile(r).Phases {
		s += "\n  " + ps.String()
	}
	for _, w := range r.Workers {
		s += fmt.Sprintf("\n  party %d: machineRounds=%d ops=%d comm=%d queueWait=%s",
			w.Party, w.MachineRounds, w.Ops, w.CommWords, w.QueueWait.Round(time.Microsecond))
		if w.Failures > 0 || w.Retries > 0 {
			s += fmt.Sprintf(" failures=%d retries=%d", w.Failures, w.Retries)
		}
		if w.WireBytes > 0 {
			s += fmt.Sprintf(" wire=%dB", w.WireBytes)
		}
	}
	return s
}

// Cluster is a simulated MPC deployment. The zero value is not usable;
// construct with NewCluster.
type Cluster struct {
	cfg     Config
	obs     trace.Observer // cfg.Observer with the process log composed in
	rounds  []RoundStats
	workers []WorkerStats
}

// NewCluster returns a cluster with the given configuration. The process
// event log (trace.Flight) is composed into the effective observer here —
// once, at construction — so every cluster in the process feeds the flight
// recorder by default; trace.SetFlightEnabled / MPCDIST_FLIGHT=off opt out
// unless a trace was requested. The log is out-of-band: it never changes a
// deterministic counter or the cfg the caller sees via Config().
func NewCluster(cfg Config) *Cluster {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Cluster{cfg: cfg, obs: trace.WithFlight(cfg.Observer)}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Report returns the aggregated statistics of all rounds run so far.
func (c *Cluster) Report() Report {
	rep := Report{Rounds: append([]RoundStats(nil), c.rounds...)}
	rep.NumRounds = len(c.rounds)
	for _, r := range c.rounds {
		if r.Machines > rep.MaxMachines {
			rep.MaxMachines = r.Machines
		}
		w := r.MaxInWords
		if r.MaxOutWords > w {
			w = r.MaxOutWords
		}
		if w > rep.MaxWords {
			rep.MaxWords = w
		}
		rep.TotalOps += r.TotalOps
		rep.CriticalOps += r.MaxMachineOps
		rep.CommWords += r.CommWords
		rep.Elapsed += r.Elapsed
		rep.QueueWait += r.QueueWait
		if r.Skew.Straggler > rep.MaxStraggler {
			rep.MaxStraggler = r.Skew.Straggler
		}
		rep.Failures += r.Failures
		rep.Retries += r.Retries
	}
	rep.Workers = append([]WorkerStats(nil), c.workers...)
	return rep
}

// Reset clears the round history but keeps the configuration.
func (c *Cluster) Reset() { c.rounds, c.workers = nil, nil }

// Ctx is the view a machine has of the world during one round: its
// identity, its random streams, an operation counter, and an outbox.
type Ctx struct {
	Machine int
	Round   int

	cluster *Cluster
	phase   trace.Phase
	ops     stats.Ops
	out     []transport.Msg
	rng     *rand.Rand

	slot       int // the machine's index in its round's sorted ids
	inWords    int
	start, end time.Time
	queueWait  time.Duration
}

// Counter returns the machine's operation counter, suitable for passing to
// the sequential kernels in editdist/ulam/approx.
func (x *Ctx) Counter() *stats.Ops { return &x.ops }

// Ops charges n elementary operations to the machine.
func (x *Ctx) Ops(n int64) { x.ops.Add(n) }

// Send emits a message for delivery at the start of the next round.
func (x *Ctx) Send(to int, data Payload) {
	x.out = append(x.out, transport.Msg{To: to, Data: data})
}

// mix64 is the SplitMix64 finalizer, shared with internal/fault and the
// transport layer through internal/stats so stream derivation cannot drift
// between the coordinator and worker processes.
func mix64(v uint64) uint64 { return stats.Mix64(v) }

// Distinct stream kinds keep the per-machine and shared streams disjoint
// even at coinciding (seed, round) coordinates.
const (
	kindMachine uint64 = 0x6d616368696e6500 // "machine\0"
	kindShared  uint64 = 0x7368617265640000 // "shared\0\0"
)

// streamSeed derives the per-machine stream seed arithmetically — no
// formatting or hashing allocations on the machine execution path.
func streamSeed(seed int64, round, machine int) int64 {
	h := mix64(uint64(seed) ^ kindMachine)
	h = mix64(h ^ uint64(round))
	h = mix64(h ^ uint64(machine))
	return int64(h)
}

// fnvString is FNV-1a over a string without allocating a hash.Hash; tags
// are the only string-keyed part of stream derivation.
func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sharedSeed derives the shared-stream seed from (seed, round, tag).
func sharedSeed(seed int64, round int, tag string) int64 {
	h := mix64(uint64(seed) ^ kindShared)
	h = mix64(h ^ uint64(round))
	h = mix64(h ^ fnvString(tag))
	return int64(h)
}

// Rand returns the machine's private random stream, deterministic in
// (seed, round, machine). The stream is created on first use and cached
// for the rest of the round.
func (x *Ctx) Rand() *rand.Rand {
	if x.rng == nil {
		x.rng = rand.New(rand.NewSource(streamSeed(x.cluster.cfg.Seed, x.Round, x.Machine)))
	}
	return x.rng
}

// SharedRand returns a random stream that is identical on every machine for
// a given tag — the "common seed" device of Algorithm 6. Each call returns
// a fresh stream positioned at the start.
func (x *Ctx) SharedRand(tag string) *rand.Rand {
	return x.cluster.SharedRand(x.Round, tag)
}

// SharedRand is the driver-side accessor for the same stream machines see
// through Ctx.SharedRand.
func (c *Cluster) SharedRand(round int, tag string) *rand.Rand {
	return rand.New(rand.NewSource(sharedSeed(c.cfg.Seed, round, tag)))
}

// MachineFunc is the program a machine executes during a round: it reads
// its input payloads and sends messages through the context.
type MachineFunc func(x *Ctx, in []Payload)

// MemoryError reports a violation of the MPC memory or machine-count
// limits.
type MemoryError struct {
	Round   string
	Machine int
	Words   int
	Limit   int
	Kind    string // "input", "output", or "machines"
}

func (e *MemoryError) Error() string {
	if e.Kind == "machines" {
		return fmt.Sprintf("mpc: round %q uses %d machines, limit %d", e.Round, e.Words, e.Limit)
	}
	return fmt.Sprintf("mpc: round %q machine %d %s holds %d words, limit %d",
		e.Round, e.Machine, e.Kind, e.Words, e.Limit)
}

// PayloadWords sums the footprint of a payload slice.
func PayloadWords(in []Payload) int {
	w := 0
	for _, p := range in {
		w += p.Words()
	}
	return w
}

// span assembles the machine's trace span after execution from the
// machine's own outbox, so this is safe inside the machine goroutine.
func (x *Ctx) span(name string) trace.MachineSpan {
	outWords, fanout := outboxSummary(x.out)
	return trace.MachineSpan{
		Round:     x.Round,
		Name:      name,
		Phase:     x.phase,
		Machine:   x.Machine,
		Start:     x.start,
		End:       x.end,
		QueueWait: x.queueWait,
		Ops:       x.ops.Count(),
		InWords:   x.inWords,
		OutWords:  outWords,
		Sends:     len(x.out),
		Fanout:    fanout,
	}
}

// outboxWords is an outbox's volume in words.
func outboxWords(msgs []transport.Msg) int {
	w := 0
	for _, m := range msgs {
		w += m.Data.Words()
	}
	return w
}

// outboxSummary returns what a machine span reports of an outbox: its
// volume in words and its fan-out, the number of distinct destinations.
func outboxSummary(msgs []transport.Msg) (words, fanout int) {
	if len(msgs) > 32 {
		seen := make(map[int]struct{}, 32)
		for _, m := range msgs {
			seen[m.To] = struct{}{}
		}
		return outboxWords(msgs), len(seen)
	}
	// Typical outboxes are a handful of messages; a quadratic scan avoids
	// a per-machine map allocation, which dominated the observer's cost on
	// trivial rounds.
	for i, m := range msgs {
		fanout++
		for _, prev := range msgs[:i] {
			if prev.To == m.To {
				fanout--
				break
			}
		}
	}
	return outboxWords(msgs), fanout
}

// Run executes one synchronous round: every machine with input runs fn
// concurrently, and the emitted messages are grouped by destination into
// the next round's inputs (returned sorted by machine id for determinism).
// It enforces the per-machine memory cap on inputs and outputs and the
// machine-count cap, returning a *MemoryError on violation.
//
// With an active Config.Faults plan, injected crashes are recovered by
// replaying the machine (up to the plan's MaxRetries extra attempts; replay is
// exact because execution is a pure function of (seed, round, machine,
// inputs)), and exhausting the budget returns *fault.CrashError. Recovery
// never perturbs the deterministic counters: the returned inputs and the
// round's TotalOps/CommWords are bit-identical to a fault-free run.
//
// A round runs as six steps: resume, admit, execute, account, shuffle and
// persist. Only a round that completes enters the history; a failed one
// still closes on the Observer with its error.
//
// Run never writes to inputs. Past admit the round holds its own
// references to the input slices and drops each once its last reader is
// done: a machine's input after the machine's last attempt, and an
// outbox once shuffle has copied it. A caller that drops inputs when Run
// is called thus lets the round's garbage go as the round proceeds.
//
// phase names the paper phase the round implements; it is validated before
// anything else happens, so a round can never reach the Observer — or the
// round history — without a valid phase label.
func (c *Cluster) Run(name string, phase trace.Phase, inputs map[int][]Payload, fn MachineFunc) (map[int][]Payload, error) {
	if err := trace.CheckPhase(phase); err != nil {
		return nil, fmt.Errorf("mpc: round %q: %w", name, err)
	}
	re := c.newRound(name, phase, len(inputs), fn)
	snap, err := re.resume()
	if err != nil {
		return nil, re.fail(err)
	}
	if snap != nil {
		return snap.Next, nil
	}
	if err := re.admit(inputs); err != nil {
		return nil, re.fail(err)
	}
	merged, err := re.execute()
	if err != nil {
		return nil, re.fail(err)
	}
	if err := re.account(merged); err != nil {
		return nil, re.fail(err)
	}
	next, err := re.shuffle(merged)
	if err != nil {
		return nil, re.fail(err)
	}
	if err := re.persist(next); err != nil {
		return nil, err
	}
	return next, nil
}

// roundExec is one round of a cluster. Its fields up to labels are fixed
// when the round opens; the steps of Run fill in the rest in order. Its run
// method executes any subset of the round's machines: Run uses it for this
// party's share, and the transport reuses it (through replay) to
// re-execute a lost peer's machines mid-round (exact replay: execution is
// a pure function of (seed, round, machine, inputs)).
type roundExec struct {
	c      *Cluster
	ctx    context.Context
	obs    trace.Observer
	round  int
	name   string
	phase  trace.Phase
	fn     MachineFunc
	plan   *fault.Plan
	labels pprof.LabelSet // {algo, phase, round} profiler labels

	st         RoundStats
	ids        []int       // admit: the round's machines, sorted
	in         [][]Payload // admit: in[k] is machine ids[k]'s input; nil once released
	inWords    []int       // admit: inWords[k] is machine ids[k]'s resident input words
	assign     [][]int     // admit: assign[p] lists the machines party p executes
	mine       []int       // admit: this party's share of assign
	replayed   []int       // execute: machines the transport had this party replay
	base       time.Time   // execute: the zero of the round clock
	start, end time.Time   // account: the execution window, zero if no machine ran
}

// newRound opens the cluster's next round over the given number of
// machines and announces it to the observer.
func (c *Cluster) newRound(name string, phase trace.Phase, machines int, fn MachineFunc) *roundExec {
	re := &roundExec{
		c: c, ctx: c.cfg.Ctx, obs: c.obs, round: len(c.rounds), name: name, phase: phase,
		fn: fn, plan: c.cfg.Faults,
		// One label set per round; every machine goroutine of the round
		// (including transport-driven re-executions) runs under it, so CPU
		// profiles attribute samples to {algo, phase, round}.
		labels: trace.PhaseLabels(c.cfg.Algo, phase, name),
		st:     RoundStats{Name: name, Phase: phase, Machines: machines},
	}
	if re.ctx == nil {
		re.ctx = context.Background()
	}
	if re.obs != nil {
		re.obs.RoundStart(trace.RoundInfo{Round: re.round, Name: name, Phase: phase, Machines: machines})
	}
	return re
}

// slot returns the index of machine id in the round's sorted ids, and
// whether the round has that machine.
func (re *roundExec) slot(id int) (int, bool) {
	return slices.BinarySearch(re.ids, id)
}

// inWordsOf returns machine id's resident input words, 0 for a machine
// outside the round.
func (re *roundExec) inWordsOf(id int) int {
	if k, ok := re.slot(id); ok {
		return re.inWords[k]
	}
	return 0
}

// resume fast-forwards a round that completed in a previous run: it
// restores the round's stats verbatim and returns the saved snapshot,
// whose Next holds the post-shuffle outputs. Resumed rounds never execute
// machines or reach the exchange barrier, so every party of a distributed
// resume skips them in lockstep and the exchange sequence numbers stay
// aligned. A nil snapshot means the round runs live.
func (re *roundExec) resume() (*RoundSnapshot, error) {
	if err := re.ctx.Err(); err != nil {
		return nil, fmt.Errorf("mpc: round %q cancelled: %w", re.name, err)
	}
	ck := re.c.cfg.Checkpointer
	if ck == nil {
		return nil, nil
	}
	snap, err := ck.Resume(re.round, re.name, re.phase)
	if err != nil {
		return nil, fmt.Errorf("mpc: round %q: %w", re.name, err)
	}
	if snap == nil {
		return nil, nil
	}
	re.st = snap.Stats
	re.c.rounds = append(re.c.rounds, re.st)
	if re.obs != nil {
		re.obs.Checkpoint(trace.CheckpointEvent{Round: re.round, Name: re.name,
			Phase: re.phase, Kind: trace.CheckpointResume, Step: snap.Step, At: time.Now()})
		re.obs.RoundEnd(re.summary(nil))
	}
	return snap, nil
}

// admit copies the round's input slices out of the caller's map, enforces
// the machine-count cap and the per-machine input cap, then partitions the
// round across the transport's parties by input weight. Every party
// computes the same partition from the same sorted ids, with no
// coordination, and executes only its own share; the exchange restores the
// full round for everyone.
func (re *roundExec) admit(inputs map[int][]Payload) error {
	cfg := re.c.cfg
	if cfg.MaxMachines > 0 && len(inputs) > cfg.MaxMachines {
		return &MemoryError{Round: re.name, Words: len(inputs), Limit: cfg.MaxMachines, Kind: "machines"}
	}
	re.ids = make([]int, 0, len(inputs))
	for id := range inputs {
		re.ids = append(re.ids, id)
	}
	sort.Ints(re.ids)
	re.in = make([][]Payload, len(re.ids))
	re.inWords = make([]int, len(re.ids))
	for k, id := range re.ids {
		re.in[k] = inputs[id]
		w := PayloadWords(re.in[k])
		re.inWords[k] = w
		re.st.MaxInWords = max(re.st.MaxInWords, w)
		if cfg.MachineWords > 0 && w > cfg.MachineWords {
			return &MemoryError{Round: re.name, Machine: id, Words: w, Limit: cfg.MachineWords, Kind: "input"}
		}
	}
	re.assign, re.mine = [][]int{re.ids}, re.ids
	if cfg.Transport != nil {
		if parties, self := cfg.Transport.Parties(); parties > 1 {
			re.assign = AssignMachines(re.ids, re.inWords, parties)
			re.mine = re.assign[self]
		}
	}
	return nil
}

// execute runs this party's machines, releasing each one's input after its
// last attempt, then all-gathers the round's records through the
// transport; the result is sorted by machine id.
func (re *roundExec) execute() ([]transport.Record, error) {
	re.base = time.Now()
	local, err := re.run(re.mine, true)
	tr := re.c.cfg.Transport
	if err != nil || tr == nil {
		return local, err
	}
	meta := transport.RoundMeta{Round: re.round, Name: re.name, Phase: string(re.phase)}
	merged, err := tr.Exchange(meta, re.assign, local, re.replay)
	if err != nil {
		return nil, fmt.Errorf("mpc: round %q: %w", re.name, err)
	}
	return merged, nil
}

// account replays the observer events of machines that ran on other
// parties, attributes the round to parties, and measures its execution
// window and skew. It then fails the round if it was cancelled or a
// machine exhausted its retry budget.
func (re *roundExec) account(merged []transport.Record) error {
	re.replayRemote(merged)
	re.attribute(merged)
	re.measure(merged)
	if err := re.ctx.Err(); err != nil {
		return fmt.Errorf("mpc: round %q cancelled: %w", re.name, err)
	}
	for _, r := range merged {
		if r.Crashed {
			// merged is sorted by machine id, so the reported machine is
			// deterministic — and identical on every party.
			return &fault.CrashError{Round: re.round, Name: re.name, Machine: r.Machine, Attempts: r.CrashAttempts}
		}
	}
	return nil
}

// measure sums the round's fault counters and measures its execution
// window and skew over the machines that actually ran.
func (re *roundExec) measure(merged []transport.Record) {
	st := &re.st
	var first, last int64
	var durs []time.Duration
	for _, r := range merged {
		st.Failures += r.Failures
		st.Retries += r.Retries
		if !r.Started {
			continue // cancelled, or crashed before every execution
		}
		if len(durs) == 0 || r.StartNs < first {
			first = r.StartNs
		}
		last = max(last, r.EndNs)
		st.QueueWait += time.Duration(r.QueueNs)
		durs = append(durs, time.Duration(r.EndNs-r.StartNs))
	}
	if len(durs) > 0 {
		st.Elapsed = time.Duration(last - first)
		re.start, re.end = re.base.Add(time.Duration(first)), re.base.Add(time.Duration(last))
	}
	st.Skew = trace.Summarize(durs)
}

// shuffle counts the round's model quantities, enforces the per-machine
// output cap, and groups the messages by destination into the next round's
// inputs. Records arrive sorted by machine id and outboxes in emission
// order, so every party builds identical inputs in an identical order.
// Each destination's slice is allocated once, at the size a counting pass
// found, and each outbox is dropped from merged once copied.
func (re *roundExec) shuffle(merged []transport.Record) (map[int][]Payload, error) {
	st, limit := &re.st, re.c.cfg.MachineWords
	sizes := make(map[int]int)
	for _, r := range merged {
		for _, m := range r.Msgs {
			sizes[m.To]++
		}
	}
	next := make(map[int][]Payload, len(sizes))
	for to, n := range sizes {
		next[to] = make([]Payload, 0, n)
	}
	var err error
	for i := range merged {
		r := &merged[i]
		st.TotalOps += r.Ops
		st.MaxMachineOps = max(st.MaxMachineOps, r.Ops)
		w := outboxWords(r.Msgs)
		st.CommWords += int64(w)
		st.MaxOutWords = max(st.MaxOutWords, w)
		if limit > 0 && w > limit && err == nil {
			err = &MemoryError{Round: re.name, Machine: r.Machine, Words: w, Limit: limit, Kind: "output"}
		}
		for _, m := range r.Msgs {
			next[m.To] = append(next[m.To], m.Data)
		}
		r.Msgs = nil
	}
	return next, err
}

// persist records the completed round: it enters the history, closes on
// the observer, and is handed to the checkpointer.
func (re *roundExec) persist(next map[int][]Payload) error {
	re.c.rounds = append(re.c.rounds, re.st)
	if re.obs != nil {
		re.obs.RoundEnd(re.summary(nil))
	}
	ck := re.c.cfg.Checkpointer
	if ck == nil {
		return nil
	}
	snap := &RoundSnapshot{Round: re.round, Name: re.name, Phase: re.phase, Stats: re.st, Next: next}
	if err := ck.Save(snap); err != nil {
		// The observer already saw the round close successfully; the save
		// failure is the job's error, not the round's.
		return fmt.Errorf("mpc: round %q: checkpoint save: %w", re.name, err)
	}
	if re.obs != nil {
		re.obs.Checkpoint(trace.CheckpointEvent{Round: re.round, Name: re.name,
			Phase: re.phase, Kind: trace.CheckpointSave, Step: snap.Step, At: time.Now()})
	}
	return nil
}

// fail closes a failed round on the observer, so the failure is visible on
// a trace and not only in the error. A machine that exhausted its retry
// budget also fires the flight recorder's auto-dump: the retained window is
// its post-mortem. Other errors (memory violations, cancellation) are
// deterministic and reproducible, so they don't warrant a dump.
func (re *roundExec) fail(err error) error {
	var ce *fault.CrashError
	if errors.As(err, &ce) {
		trace.FlightTrigger("mpc: " + err.Error())
	}
	if re.obs != nil {
		re.obs.RoundEnd(re.summary(err))
	}
	return err
}

// summary is the round's closing event; a non-nil err marks it failed.
func (re *roundExec) summary(err error) trace.RoundSummary {
	st := &re.st
	sum := trace.RoundSummary{
		Round:     re.round,
		Name:      st.Name,
		Phase:     st.Phase,
		Machines:  st.Machines,
		Start:     re.start,
		End:       re.end,
		Elapsed:   st.Elapsed,
		QueueWait: st.QueueWait,
		TotalOps:  st.TotalOps,
		CommWords: st.CommWords,
		Failures:  st.Failures,
		Retries:   st.Retries,
		Skew:      st.Skew,
	}
	if err != nil {
		sum.Err = err.Error()
	}
	return sum
}

// replay is the transport's ExecFunc: it re-executes a lost peer's
// machines and keeps their inputs, since a rejoining worker may be asked
// for the same machines again. The ids come off the wire, so a machine
// outside the round is an error.
func (re *roundExec) replay(ids []int) ([]transport.Record, error) {
	for _, id := range ids {
		if _, ok := re.slot(id); !ok {
			return nil, fmt.Errorf("mpc: round %q has no machine %d to replay", re.name, id)
		}
	}
	re.replayed = append(re.replayed, ids...)
	return re.run(ids, false)
}

// run executes the given machines concurrently (bounded by the cluster's
// parallelism) and returns their execution records in id order. With
// release set each machine drops its input after its last attempt; only
// this party's own share, which runs once, may do so.
func (re *roundExec) run(ids []int, release bool) ([]transport.Record, error) {
	recs := make([]transport.Record, len(ids))
	var wg sync.WaitGroup
	sem := make(chan struct{}, re.c.cfg.Parallelism)
	for k, id := range ids {
		wg.Add(1)
		go func(k, id int) {
			defer wg.Done()
			// The labels live for the goroutine's lifetime; no unset
			// needed. Applied before the semaphore so profiles also
			// attribute scheduler/queueing samples to the round.
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), re.labels))
			spawned := time.Now()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each goroutine writes only its own record and input slot;
			// wg.Wait is the happens-before edge for the reads after it.
			slot, _ := re.slot(id)
			recs[k] = re.machine(id, slot, spawned)
			if release {
				re.in[slot] = nil
			}
		}(k, id)
	}
	wg.Wait()
	return recs, nil
}

// machine runs the attempts of machine id (at slot in the round's ids)
// until one completes, the retry budget runs out, or the round is
// cancelled. The returned record carries the fault counters of every
// attempt and the execution of the last one.
func (re *roundExec) machine(id, slot int, spawned time.Time) transport.Record {
	r := transport.Record{Machine: id}
	x := re.newCtx(id, slot)
	var queueWait time.Duration
	// Cancellation is re-checked per attempt so a context arriving
	// mid-replay stops within one retry.
	for attempt := 0; re.ctx.Err() == nil; attempt++ {
		if attempt > 0 {
			// A fresh Ctx per replay: replay is exact because the machine's
			// random streams and inputs depend only on (seed, round,
			// machine), never on the attempt.
			x = re.newCtx(id, slot)
		}
		if re.plan.CrashBefore(re.round, id, attempt) {
			if re.crash(&r, trace.FaultCrashBefore, attempt) {
				continue
			}
			break
		}
		// The round clock starts here — after slot acquisition — so Elapsed
		// measures machine execution, not semaphore queueing.
		x.start = time.Now()
		if attempt == 0 {
			queueWait = x.start.Sub(spawned)
		}
		x.queueWait = queueWait
		if !re.exec(x, &r, attempt) {
			break // cancelled during an injected straggle
		}
		// A crash after execution loses the attempt's output before it
		// ships; replay.
		if re.plan.CrashAfterExec(re.round, id, attempt) && re.crash(&r, trace.FaultCrashAfter, attempt) {
			continue
		}
		break
	}
	r.Ops = x.ops.Count()
	if !x.start.IsZero() {
		r.Started = true
		r.StartNs = x.start.Sub(re.base).Nanoseconds()
		r.EndNs = x.end.Sub(re.base).Nanoseconds()
		r.QueueNs = int64(x.queueWait)
	}
	if !r.Crashed {
		// A machine that exhausted its budget ships only the crash marker,
		// and every party fails the round on it identically.
		r.Msgs = x.out
	}
	return r
}

func (re *roundExec) newCtx(id, slot int) *Ctx {
	return &Ctx{Machine: id, Round: re.round, cluster: re.c, phase: re.phase,
		slot: slot, inWords: re.inWords[slot]}
}

// exec runs one attempt inside its trace span. An injected straggle delays
// the attempt inside the span, so it shows in Elapsed and the skew stats.
// exec reports false when the round is cancelled during that delay, in
// which case fn never runs.
func (re *roundExec) exec(x *Ctx, r *transport.Record, attempt int) bool {
	if re.obs != nil {
		re.obs.MachineStart(x.Round, x.Machine, x.inWords)
	}
	live := true
	if d := re.plan.StraggleDelay(re.round, x.Machine, attempt); d > 0 {
		r.Failures++
		re.fault(trace.FaultStraggle, x.Machine, attempt)
		select {
		case <-re.ctx.Done():
			live = false
		case <-time.After(d):
		}
	}
	if live {
		re.fn(x, re.in[x.slot])
	}
	x.end = time.Now()
	if re.obs != nil {
		re.obs.MachineEnd(x.span(re.name))
	}
	return live
}

// crash counts an injected crash of the machine's attempt and reports
// whether to replay it. With the plan's retry budget spent it marks the
// record crashed instead.
func (re *roundExec) crash(r *transport.Record, kind trace.FaultKind, attempt int) bool {
	r.Failures++
	re.fault(kind, r.Machine, attempt)
	budget := re.plan.MaxRetries
	if budget <= 0 {
		budget = DefaultMaxRetries
	}
	if attempt >= budget {
		r.Crashed, r.CrashAttempts = true, attempt+1
		return false
	}
	r.Retries++
	if re.obs != nil {
		re.obs.Retry(trace.RetryEvent{Round: re.round, Name: re.name, Phase: re.phase,
			Machine: r.Machine, Kind: kind, Attempt: attempt + 1, At: time.Now()})
	}
	return true
}

// fault reports one injected fault to the observer.
func (re *roundExec) fault(kind trace.FaultKind, machine, attempt int) {
	if re.obs != nil {
		re.obs.Fault(trace.FaultEvent{Round: re.round, Name: re.name, Phase: re.phase,
			Machine: machine, Kind: kind, Attempt: attempt, At: time.Now()})
	}
}
