package transport

import (
	"flag"
	"fmt"
	"sync"
	"time"
)

// Payload is any unit of data shipped between machines. Words reports its
// memory footprint in machine words; the simulator uses it to enforce the
// per-machine cap. On the wire a payload travels through the
// self-describing codec, which decodes only registered types that
// implement it.
type Payload interface {
	Words() int
}

// Msg is one addressed message in a machine's outbox.
type Msg struct {
	To   int
	Data Payload
}

// Record is the execution record of one machine in one round: everything a
// peer needs to reproduce the round's statistics and shuffle exactly as if
// it had executed the machine itself. The deterministic fields (Ops, the
// outbox, the fault counters) are pure functions of (seed, round, machine,
// inputs), so a record is identical no matter which party produced it —
// the property mid-round reassignment relies on.
type Record struct {
	Machine int
	// Ops is the machine's elementary-operation count.
	Ops int64
	// Started reports whether the final attempt actually executed (false
	// when the machine was cancelled, or crashed before every execution).
	Started bool
	// StartNs/EndNs delimit execution relative to the executing party's
	// round base; QueueNs is the time spent waiting for an execution slot.
	// Wall-clock, advisory: they feed Elapsed/QueueWait/Skew, never the
	// deterministic counters.
	StartNs, EndNs, QueueNs int64
	// Failures and Retries count the injected faults the machine hit and
	// the replays that recovered them — deterministic under a fault plan.
	Failures, Retries int
	// Crashed marks a machine that exhausted its replay budget; every
	// party sees the same flag post-merge and fails the round identically.
	Crashed       bool
	CrashAttempts int
	// Msgs is the machine's outbox in emission order.
	Msgs []Msg
}

// RoundMeta identifies one exchange. Both ends of a TCP connection derive
// it independently from the same deterministic driver; the transport
// cross-checks the two views (plus an internal monotonic sequence number)
// on every exchange, so any divergence between coordinator and worker is
// detected at the next round barrier instead of corrupting results.
type RoundMeta struct {
	Round int    // cluster-local round index
	Name  string // round label
	Phase string // paper phase (trace.Phase, carried as a string)
}

// ExecFunc re-executes the given machine ids and returns their records, in
// id order. Execution is exact replay — internal/mpc binds the round's
// inputs, seed, and fault plan into the closure — which is what lets a
// peer's lost work be re-run anywhere mid-round.
type ExecFunc func(ids []int) ([]Record, error)

// Transport is the pluggable shuffle: it decides how many parties execute
// a round and moves execution records between them.
//
// The contract is SPMD all-gather: every party runs the same deterministic
// driver, executes the machines assigned to it (assign[self], computed
// identically everywhere), and calls Exchange with its own records.
// Exchange returns the full round — the union of every party's records,
// sorted by machine id — so each party's driver can continue as if it had
// executed everything.
type Transport interface {
	// Parties returns the fixed party count and this party's index in
	// [0, n); index 0 is the coordinator.
	Parties() (n, self int)
	// Exchange all-gathers one round's records. assign is the full
	// partition (assign[p] = ids party p executes), local holds this
	// party's records, and exec replays machines on demand — the recovery
	// path when a peer is lost mid-round.
	Exchange(meta RoundMeta, assign [][]int, local []Record, exec ExecFunc) ([]Record, error)
	// Stats reports cumulative transport-level counters (bytes on wire,
	// peer losses, reassignments). Advisory: never part of the model
	// quantities.
	Stats() Stats
	Close() error
}

// Stats are cumulative transport counters. All host-level: a run's
// deterministic model counters are identical whatever these say.
type Stats struct {
	BytesOut      int64 `json:"bytesOut"`      // bytes written to the wire
	BytesIn       int64 `json:"bytesIn"`       // bytes read from the wire
	Frames        int64 `json:"frames"`        // frames sent + received
	Exchanges     int   `json:"exchanges"`     // completed Exchange calls
	PeersLost     int   `json:"peersLost"`     // peers permanently evicted (conn error or heartbeat timeout past grace)
	Reassigns     int   `json:"reassigns"`     // machine batches re-executed after a peer loss
	Reconnects    int   `json:"reconnects"`    // connections recycled and resumed via the rejoin handshake
	CorruptFrames int64 `json:"corruptFrames"` // frames rejected by the CRC/length check
}

// PeerStatus breaks a session's wire counters down per peer connection,
// with the heartbeat round-trip estimate on top, in the live status
// endpoint's JSON shape (millisecond floats). Advisory, like Stats.
type PeerStatus struct {
	Party         int     `json:"party"` // the remote party's index
	Alive         bool    `json:"alive"`
	BytesIn       int64   `json:"bytesIn"`
	BytesOut      int64   `json:"bytesOut"`
	Frames        int64   `json:"frames"`
	RTTP99Ms      float64 `json:"rttP99Ms"`    // heartbeat RTT p99 (0 until sampled)
	LastHeardMs   float64 `json:"lastHeardMs"` // ms since the last frame arrived, -1 before any
	Reconnects    int64   `json:"reconnects"`
	CorruptFrames int64   `json:"corruptFrames"`
}

// Status is a live snapshot of one party's view of the session, shaped
// for the -status HTTP endpoint: where the deterministic driver is
// (exchange seq + round metadata), who is alive, what the wire looks
// like, and the liveness configuration in force. All advisory.
type Status struct {
	Role           string       `json:"role"` // "coordinator"
	Parties        int          `json:"parties"`
	Self           int          `json:"self"`
	Seq            int          `json:"seq"` // exchange barriers completed or in flight
	Round          int          `json:"round"`
	Name           string       `json:"roundName"`
	Phase          string       `json:"phase"`
	Alive          int          `json:"alive"` // live parties, self included
	HeartbeatMs    float64      `json:"heartbeatMs,omitempty"`
	PeerDeadlineMs float64      `json:"peerDeadlineMs,omitempty"`
	RejoinGraceMs  float64      `json:"rejoinGraceMs,omitempty"`
	Wire           Stats        `json:"wire"`
	Peers          []PeerStatus `json:"peers"`
}

// Local is the in-process transport: a single party executes everything
// and Exchange is the identity on the records. The shuffle itself is
// bit-identical to the seed simulator's (internal/mpc treats a nil
// Transport as a no-op Local); the only addition is advisory accounting —
// each Exchange runs the records through the payload codec to measure the
// bytes an fRecords frame *would* carry, so wireBytes is comparable
// order-of-magnitude across `-transport local|tcp` instead of reading 0
// locally. Encoding failures (e.g. an unregistered payload type in a
// test) silently skip the accounting and never fail the round.
type Local struct {
	mu    sync.Mutex
	codec *Codec
	st    Stats
}

// NewLocal returns a counting in-process transport.
func NewLocal() *Local { return &Local{} }

// Parties implements Transport.
func (l *Local) Parties() (int, int) { return 1, 0 }

// Exchange implements Transport: with one party, local is the round.
func (l *Local) Exchange(meta RoundMeta, _ [][]int, local []Record, _ ExecFunc) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.Exchanges++
	if l.codec == nil {
		l.codec = NewCodec()
	}
	if body, err := l.codec.AppendValue(nil, recordsBody{Seq: l.st.Exchanges, Meta: meta, Records: local}); err == nil {
		l.st.BytesOut += int64(len(body)) + frameOverhead
		l.st.Frames++
	}
	return local, nil
}

// Stats implements Transport, reporting the logical record volume the
// rounds so far would have put on a wire.
func (l *Local) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Close implements Transport.
func (l *Local) Close() error { return nil }

// PeerLossError reports a peer (worker or coordinator) that stopped
// responding — connection error or heartbeat deadline exceeded — when the
// exchange could not complete without it. Mid-round worker losses are
// normally recovered by reassignment and never surface as errors; a
// worker that loses its coordinator, or a coordinator that cannot re-run
// the lost work, cannot recover.
type PeerLossError struct {
	Party int   // the lost peer's party index
	Cause error // the underlying read/write error, if any
}

func (e *PeerLossError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("transport: lost party %d: %v", e.Party, e.Cause)
	}
	return fmt.Sprintf("transport: lost party %d", e.Party)
}

func (e *PeerLossError) Unwrap() error { return e.Cause }

// DivergenceError reports an SPMD consistency violation: two parties
// arrived at the same exchange with different round metadata, which means
// their deterministic drivers took different paths (diverged binaries,
// seeds, or inputs). There is no recovery; the job is unsound.
type DivergenceError struct {
	Seq       int
	Want, Got RoundMeta
	WantSeq   int
}

func (e *DivergenceError) Error() string {
	if e.WantSeq != e.Seq {
		return fmt.Sprintf("transport: exchange sequence diverged: local %d, peer %d (round %q vs %q)",
			e.WantSeq, e.Seq, e.Want.Name, e.Got.Name)
	}
	return fmt.Sprintf("transport: round metadata diverged at exchange %d: local (round %d %q phase %q), peer (round %d %q phase %q)",
		e.Seq, e.Want.Round, e.Want.Name, e.Want.Phase, e.Got.Round, e.Got.Name, e.Got.Phase)
}

// RefusedError reports a coordinator's fError answer to a worker's hello:
// a protocol version mismatch, a resume hello at registration or a plain
// one on the rejoin listener, a bad session token, or an evicted slot. The
// same hello would be refused again, so a worker never retries it.
type RefusedError struct {
	Resume bool   // the refused hello asked to resume a slot
	Reason string // the coordinator's message
}

func (e *RefusedError) Error() string {
	if e.Resume {
		return "transport: coordinator refused resume: " + e.Reason
	}
	return "transport: coordinator rejected registration: " + e.Reason
}

// CorruptFrameError reports a frame rejected by the integrity check —
// CRC32-C trailer mismatch or an impossible length word. The byte stream
// is unrecoverable past a corrupt frame (the corrupted byte may be the
// length itself), so the connection is recycled: the peer redials and
// resumes via the rejoin handshake rather than resynchronizing in place.
type CorruptFrameError struct {
	Party  int    // remote party of the connection, when known
	Type   byte   // announced frame type byte (possibly itself corrupt)
	Len    int64  // announced body length
	Reason string // what the check found
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("transport: corrupt frame from party %d (type %d, announced length %d): %s",
		e.Party, e.Type, e.Len, e.Reason)
}

// DefaultCorruptTolerance bounds cumulative corrupt frames per peer slot
// before the coordinator stops offering rejoin and evicts for good: a
// link this dirty is not worth resuming. Every binary runs with it; only
// tests set Options.CorruptTolerance.
const DefaultCorruptTolerance = 8

// BindFlags registers the shared transport-liveness flags of the binaries
// that coordinate (mpcdist, mpcserve; workers adopt the coordinator's
// values from the welcome) and returns a closure that assembles the
// Options after fs.Parse, validating that the heartbeat interval is
// shorter than the peer deadline (a deadline at or under the heartbeat
// period would declare healthy idle peers dead between pings).
func BindFlags(fs *flag.FlagSet) func() (Options, error) {
	hb := fs.Duration("heartbeat", 250*time.Millisecond, "transport heartbeat interval (idle peers are pinged this often)")
	dl := fs.Duration("peer-deadline", 3*time.Second, "rolling read deadline: a peer silent this long is declared lost (must exceed -heartbeat)")
	grace := fs.Duration("rejoin-grace", 0, "hold a lost worker's slot this long for reconnect + session rejoin (0 = evict immediately)")
	return func() (Options, error) {
		if *hb <= 0 {
			return Options{}, fmt.Errorf("transport: -heartbeat must be positive, got %s", *hb)
		}
		if *dl <= 0 {
			return Options{}, fmt.Errorf("transport: -peer-deadline must be positive, got %s", *dl)
		}
		if *hb >= *dl {
			return Options{}, fmt.Errorf("transport: -heartbeat (%s) must be shorter than -peer-deadline (%s)", *hb, *dl)
		}
		if *grace < 0 {
			return Options{}, fmt.Errorf("transport: -rejoin-grace must not be negative, got %s", *grace)
		}
		return Options{HeartbeatInterval: *hb, PeerTimeout: *dl, RejoinGrace: *grace}, nil
	}
}
