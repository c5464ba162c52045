// Package trace defines the observability layer of the MPC simulator: an
// Observer interface that internal/mpc invokes from Cluster.Run, and one
// event log per process that every view of a run reads — the Chrome
// trace-event (Perfetto-compatible) export with one track per simulated
// machine, telemetry shipping between the parties of a distributed run,
// the always-on flight recorder's dumps and live stats, and the rolling
// round-latency quantiles.
//
// The quantities observed here are exactly the ones the paper's Table 1 is
// stated in, resolved to per-machine granularity: a MachineSpan carries the
// machine's wall time excluding semaphore queueing, its operation count,
// and its input/output volume, so the gap between "total work" and
// "parallel time" — the axis on which the paper improves over HSS [20] —
// becomes visible per round instead of only as an end-of-run aggregate.
//
// Observers may be invoked concurrently from the goroutines simulating
// machines; implementations must be safe for concurrent use. The Log locks
// internally. A nil Observer on mpc.Config costs one nil check per event
// site (benchmarked in internal/mpc).
package trace

import "time"

// RoundInfo announces a round about to execute.
type RoundInfo struct {
	Round    int    // zero-based round index within the cluster's history
	Name     string // the round's label, e.g. "ulam:solve"
	Phase    Phase  // the paper phase the round implements
	Machines int    // machines that received input this round
}

// MachineSpan is the execution record of one machine in one round. Start
// and End delimit the machine's actual execution window — the clock starts
// after the simulator's parallelism semaphore is acquired, so the span
// excludes queueing and measures only simulated work.
type MachineSpan struct {
	Round   int
	Name    string // round name
	Phase   Phase  // the paper phase of the round
	Machine int
	// Start and End delimit execution, excluding semaphore wait.
	Start time.Time
	End   time.Time
	// QueueWait is how long the machine waited for an execution slot.
	QueueWait time.Duration
	// Ops is the machine's elementary-operation count.
	Ops int64
	// InWords and OutWords are the resident input and emitted output sizes.
	InWords  int
	OutWords int
	// Sends counts emitted messages; Fanout counts distinct destinations.
	Sends  int
	Fanout int
	// Remote marks a span replayed from another party's execution record
	// on a distributed run (its timestamps were rebased onto this party's
	// clock). The Log skips remote spans, so each party logs — and ships —
	// only the machines it executed itself.
	Remote bool
}

// Duration returns the span's execution time.
func (s MachineSpan) Duration() time.Duration { return s.End.Sub(s.Start) }

// RoundSummary closes a round with its aggregate measurements. Err is the
// simulator's error ("input"/"output" memory violations, retry-budget
// exhaustion, or cancellation) when the round failed, empty on success.
type RoundSummary struct {
	Round    int
	Name     string
	Phase    Phase
	Machines int
	// Start and End delimit the round's execution window: first machine
	// start to last machine end (zero when no machine ran).
	Start time.Time
	End   time.Time
	// Elapsed is End - Start; QueueWait sums the machines' slot waits.
	Elapsed   time.Duration
	QueueWait time.Duration
	TotalOps  int64
	CommWords int64
	// Failures counts injected faults observed during the round (crashes
	// and straggler delays); Retries counts the machine re-executions that
	// recovered them. Both are 0 on a fault-free cluster.
	Failures int
	Retries  int
	// Skew summarizes the distribution of per-machine execution times.
	Skew SkewStats
	Err  string
}

// FaultKind labels an injected fault or the recovery action for it.
type FaultKind string

const (
	FaultCrashBefore FaultKind = "crash-before" // machine lost before executing
	FaultCrashAfter  FaultKind = "crash-after"  // machine lost after executing, output dropped
	FaultStraggle    FaultKind = "straggle"     // machine execution delayed
)

// EventFault and EventRetry are the trace-event names fault and recovery
// events render under on a machine's track.
const (
	EventFault = "fault"
	EventRetry = "retry"
)

// FaultEvent reports one injected fault on the crashed or delayed machine.
type FaultEvent struct {
	Round   int
	Name    string // round name
	Phase   Phase
	Machine int
	Kind    FaultKind
	Attempt int // the attempt the fault hit (0 = first execution)
	At      time.Time
}

// RetryEvent reports one recovery action: a machine about to be replayed
// after the fault described by Kind. Attempt is the upcoming attempt's
// index.
type RetryEvent struct {
	Round   int
	Name    string
	Phase   Phase
	Machine int
	Kind    FaultKind // the fault being recovered from
	Attempt int       // the attempt about to run (>= 1)
	At      time.Time
}

// Transport event kinds (TransportEvent.Kind).
const (
	TransportHandshake = "handshake"     // session established: all workers registered
	TransportPeerLost  = "peer-lost"     // a peer was permanently evicted (conn error past grace, corrupt burst)
	TransportSuspect   = "peer-suspect"  // a peer's connection failed; its slot is held for rejoin
	TransportReconnect = "reconnect"     // a peer redialed and resumed its session slot
	TransportCorrupt   = "corrupt-frame" // a frame failed the CRC/length integrity check
	TransportReassign  = "reassign"      // a lost peer's machines were re-executed elsewhere
	TransportExchange  = "exchange"      // one round barrier completed
	// TransportPeerStats is the kind of the per-peer counter instants
	// (wire bytes, heartbeat RTT p99) a distributed session logs as it
	// closes, ending its transport lane.
	TransportPeerStats = "peer-stats"
)

// TransportEvent reports one occurrence in the distributed shuffle
// transport (see internal/transport): session handshakes, round-barrier
// completions, peer losses, and the reassignments that recover from them.
// These are host-level events — a run's deterministic model counters are
// identical whatever they say.
type TransportEvent struct {
	Kind  string
	Party int   // remote party involved (0 = the coordinator), -1 when not applicable
	Seq   int   // exchange sequence number within the session, 0 when not applicable
	IDs   int   // machine count involved (reassignments), 0 otherwise
	Bytes int64 // cumulative bytes on the wire at event time
	At    time.Time
}

// Checkpoint event kinds: a completed round persisted to the durable
// store, or a round fast-forwarded from a snapshot instead of executed.
const (
	CheckpointSave   = "save"
	CheckpointResume = "resume"
)

// CheckpointEvent reports one durability action at a round boundary (see
// internal/checkpoint). Like transport events it is host-level and
// out-of-band: saving or resuming never changes a deterministic counter.
type CheckpointEvent struct {
	Round int    // round index within its cluster
	Name  string // round name
	Phase Phase
	Kind  string // CheckpointSave or CheckpointResume
	Step  int    // job-global checkpoint step index
	At    time.Time
}

// Observer receives the simulator's execution events. RoundStart,
// RoundEnd and Checkpoint are invoked from the driving goroutine;
// MachineStart, MachineEnd, Fault, and Retry are invoked concurrently from
// the machine goroutines, and Transport from the transport's goroutines,
// so implementations must be safe for concurrent use.
type Observer interface {
	RoundStart(r RoundInfo)
	MachineStart(round, machine, inWords int)
	MachineEnd(s MachineSpan)
	// Fault reports one injected fault; Retry reports the recovery action
	// replaying a machine.
	Fault(e FaultEvent)
	Retry(e RetryEvent)
	RoundEnd(r RoundSummary)
	// Transport reports one event of a distributed run's shuffle transport.
	Transport(e TransportEvent)
	// Checkpoint reports a round saved to the durable store (after its
	// RoundEnd) or fast-forwarded from it (before its RoundEnd).
	Checkpoint(e CheckpointEvent)
}

// Base is a no-op Observer for embedding: an observer interested in a
// subset of events embeds Base and overrides what it needs.
type Base struct{}

func (Base) RoundStart(RoundInfo)       {}
func (Base) MachineStart(_, _, _ int)   {}
func (Base) MachineEnd(MachineSpan)     {}
func (Base) Fault(FaultEvent)           {}
func (Base) Retry(RetryEvent)           {}
func (Base) RoundEnd(RoundSummary)      {}
func (Base) Transport(TransportEvent)   {}
func (Base) Checkpoint(CheckpointEvent) {}

// Multi fans every event out to several observers in order. A nil entry is
// skipped, so Multi(a, nil) is usable without pre-filtering.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) RoundStart(r RoundInfo) {
	for _, o := range m {
		o.RoundStart(r)
	}
}

func (m multi) MachineStart(round, machine, inWords int) {
	for _, o := range m {
		o.MachineStart(round, machine, inWords)
	}
}

func (m multi) MachineEnd(s MachineSpan) {
	for _, o := range m {
		o.MachineEnd(s)
	}
}

func (m multi) Fault(e FaultEvent) {
	for _, o := range m {
		o.Fault(e)
	}
}

func (m multi) Retry(e RetryEvent) {
	for _, o := range m {
		o.Retry(e)
	}
}

func (m multi) RoundEnd(r RoundSummary) {
	for _, o := range m {
		o.RoundEnd(r)
	}
}

func (m multi) Transport(e TransportEvent) {
	for _, o := range m {
		o.Transport(e)
	}
}

func (m multi) Checkpoint(e CheckpointEvent) {
	for _, o := range m {
		o.Checkpoint(e)
	}
}
