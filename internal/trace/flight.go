package trace

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on, bounded-cost "black box" of a process:
// an Observer (plus TransportObserver and telemetry sink) that keeps only
// the most recent events — round summaries, machine spans, fault/retry
// instants, transport occurrences, and telemetry batches ingested from
// remote parties — in fixed-size rings, alongside a rolling window of
// round latencies for p50/p95/p99 quantiles.
//
// Unlike Collector (verbatim, unbounded, attach-on-request), the recorder
// is meant to run for the whole life of a serving process: memory is
// bounded by the ring capacities, the hot-path events (MachineStart,
// Message) are no-ops, and everything else is one short critical section.
// Dump() renders the retained window as a merged cluster trace that
// tracecheck accepts, which is what the SIGQUIT handler, the
// /debug/flight endpoints, and the automatic failure triggers write out
// (see internal/traceio.ArmFlight).
//
// The recorder is strictly out-of-band: nothing it observes or retains
// feeds a deterministic model counter, so a run's results are
// bit-identical whether it is enabled or not (the dist parity suite and
// CI's output diff enforce this).
type FlightRecorder struct {
	mu      sync.Mutex
	party   int
	parties map[int]bool
	offsets map[int]int64 // remote party -> clock offset from ingested telemetry

	rounds ring[flightItem[TeleRound]]
	spans  ring[flightItem[TeleSpan]]
	faults ring[flightItem[TeleFault]]
	events ring[flightItem[TeleTransport]]

	open    TeleRound // the round currently executing locally (zero when none)
	hasOpen bool

	lat  [flightLatWindow]int64 // rolling round-latency window, ns
	latN uint64                 // total latencies recorded (ring index = latN % window)

	seen    uint64 // total events offered to the recorder, retained or not
	corrupt uint64 // corrupt-frame transport events seen (burst trigger)

	// Checkpoint bookkeeping: counts of rounds persisted to / restored
	// from the durable store, and the most recent step's coordinates.
	ckptSaves   uint64
	ckptResumes uint64
	ckptStep    int
	ckptRound   int

	dump     atomic.Value // func(reason string)
	lastDump atomic.Int64 // UnixNano of the last auto dump, for debouncing
}

// Ring capacities. Retention is per ring, not per party: on a coordinator
// ingesting worker telemetry, all parties share the windows, so a dump
// holds the cluster-wide recent past rather than one lane's deep history.
const (
	flightRoundCap     = 256
	flightSpanCap      = 4096
	flightFaultCap     = 512
	flightTransportCap = 512
	flightLatWindow    = 256

	// flightDumpDebounce is the minimum interval between automatic dumps:
	// a fault storm (many peers lost, many rounds exhausting retries)
	// produces one dump, not one per trigger.
	flightDumpDebounce = time.Second
)

// flightItem tags a wire-shaped event with the party it belongs to.
type flightItem[T any] struct {
	party int
	v     T
}

// ring is a fixed-capacity overwrite-oldest buffer. The zero value is
// usable; storage is allocated on first add so an enabled-but-idle
// recorder costs no memory.
type ring[T any] struct {
	buf  []T
	cap  int
	n    int // items retained (<= cap)
	next int // next write position
}

func (r *ring[T]) add(v T) {
	if r.buf == nil {
		if r.cap <= 0 {
			return
		}
		r.buf = make([]T, r.cap)
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// items returns the retained items, oldest first.
func (r *ring[T]) items() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, 0, r.n)
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// NewFlightRecorder returns an empty recorder with the default ring
// capacities. Most callers use the process-global Flight() instead.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		rounds: ring[flightItem[TeleRound]]{cap: flightRoundCap},
		spans:  ring[flightItem[TeleSpan]]{cap: flightSpanCap},
		faults: ring[flightItem[TeleFault]]{cap: flightFaultCap},
		events: ring[flightItem[TeleTransport]]{cap: flightTransportCap},
	}
}

// SetParty declares which party index this process's own events belong to
// (0, the coordinator, by default). Worker processes call it after the
// transport handshake so their lane is labeled correctly in dumps.
func (f *FlightRecorder) SetParty(p int) {
	f.mu.Lock()
	f.party = p
	f.mu.Unlock()
}

// RoundStart tracks the currently executing round so a dump taken
// mid-round still shows it (as an instant: it has no end yet).
func (f *FlightRecorder) RoundStart(r RoundInfo) {
	f.mu.Lock()
	f.seen++
	f.open = TeleRound{Round: r.Round, Name: r.Name, Phase: string(r.Phase),
		Machines: r.Machines, StartNs: time.Now().UnixNano()}
	f.hasOpen = true
	f.mu.Unlock()
}

// MachineStart is a no-op: the span is recorded whole at MachineEnd.
func (f *FlightRecorder) MachineStart(round, machine, inWords int) {}

// MachineEnd records the machine's execution span. Remote spans are
// skipped — on a distributed run the executing party ships the span via
// telemetry, which the coordinator ingests with the correct party tag.
func (f *FlightRecorder) MachineEnd(s MachineSpan) {
	if s.Remote {
		return
	}
	f.mu.Lock()
	f.seen++
	f.spans.add(flightItem[TeleSpan]{party: f.party, v: TeleSpan{
		Round: s.Round, Machine: s.Machine, Name: s.Name, Phase: string(s.Phase),
		StartNs: nsOf(s.Start), EndNs: nsOf(s.End), QueueNs: int64(s.QueueWait),
		Ops: s.Ops, InWords: s.InWords, OutWords: s.OutWords,
		Sends: s.Sends, Fanout: s.Fanout,
	}})
	f.mu.Unlock()
}

// Message is a no-op: per-message recording would dominate the cost of
// the rounds it observes, and the span already carries the aggregate.
func (f *FlightRecorder) Message(round, from, to, words int) {}

// Fault records an injected fault.
func (f *FlightRecorder) Fault(e FaultEvent) {
	f.mu.Lock()
	f.seen++
	f.faults.add(flightItem[TeleFault]{party: f.party, v: TeleFault{
		Round: e.Round, Machine: e.Machine, Name: e.Name, Phase: string(e.Phase),
		Kind: string(e.Kind), Attempt: e.Attempt, AtNs: nsOf(e.At),
	}})
	f.mu.Unlock()
}

// Retry records a recovery action.
func (f *FlightRecorder) Retry(e RetryEvent) {
	f.mu.Lock()
	f.seen++
	f.faults.add(flightItem[TeleFault]{party: f.party, v: TeleFault{
		Round: e.Round, Machine: e.Machine, Name: e.Name, Phase: string(e.Phase),
		Kind: string(e.Kind), Attempt: e.Attempt, Retry: true, AtNs: nsOf(e.At),
	}})
	f.mu.Unlock()
}

// RoundEnd closes the open round and records its summary and latency.
func (f *FlightRecorder) RoundEnd(r RoundSummary) {
	f.mu.Lock()
	f.seen++
	f.hasOpen = false
	f.rounds.add(flightItem[TeleRound]{party: f.party, v: TeleRound{
		Round: r.Round, Name: r.Name, Phase: string(r.Phase), Machines: r.Machines,
		StartNs: nsOf(r.Start), EndNs: nsOf(r.End), QueueNs: int64(r.QueueWait),
		TotalOps: r.TotalOps, CommWords: r.CommWords,
		Failures: r.Failures, Retries: r.Retries, Err: r.Err,
	}})
	f.lat[f.latN%flightLatWindow] = int64(r.Elapsed)
	f.latN++
	f.mu.Unlock()
}

// Transport records a transport-level event and, on a peer loss, fires
// the automatic dump trigger: losing a peer is exactly the moment the
// recent past is about to become interesting.
func (f *FlightRecorder) Transport(e TransportEvent) {
	f.mu.Lock()
	f.seen++
	f.events.add(flightItem[TeleTransport]{party: f.party, v: TeleTransport{
		Kind: e.Kind, Party: e.Party, Seq: e.Seq, IDs: e.IDs, Bytes: e.Bytes,
		AtNs: nsOf(e.At),
	}})
	burst := false
	if e.Kind == TransportCorrupt {
		f.corrupt++
		burst = f.corrupt%flightCorruptBurst == 0
	}
	f.mu.Unlock()
	if e.Kind == TransportPeerLost {
		f.Trigger("transport: " + TransportPeerLost)
	}
	if burst {
		f.Trigger("transport: corrupt-frame burst")
	}
}

// Checkpoint records a durability action. The recorder keeps counts and
// the latest step rather than a ring: a dump wants "how far did the store
// get", not a history the manifest already holds.
func (f *FlightRecorder) Checkpoint(e CheckpointEvent) {
	f.mu.Lock()
	f.seen++
	if e.Kind == CheckpointSave {
		f.ckptSaves++
	} else {
		f.ckptResumes++
	}
	f.ckptStep, f.ckptRound = e.Step, e.Round
	f.mu.Unlock()
}

// flightCorruptBurst is how many corrupt-frame events auto-trigger a dump:
// one flipped bit is chaos-as-usual, a burst means a dirty link worth a
// post-mortem.
const flightCorruptBurst = 8

// Ingest folds a remote party's telemetry batch into the rings, so a
// coordinator's dump shows every party's recent events even when no full
// telemetry consumer (-trace) is attached. Round latencies from remote
// batches do not enter the local quantile window — the coordinator runs
// the same rounds itself, and double-counting would skew the quantiles.
func (f *FlightRecorder) Ingest(t Telemetry) {
	f.mu.Lock()
	if f.parties == nil {
		f.parties = map[int]bool{}
	}
	f.parties[t.Party] = true
	if f.offsets == nil {
		f.offsets = map[int]int64{}
	}
	if _, ok := f.offsets[t.Party]; !ok || t.OffsetNs != 0 {
		f.offsets[t.Party] = t.OffsetNs
	}
	for _, s := range t.Spans {
		f.seen++
		f.spans.add(flightItem[TeleSpan]{party: t.Party, v: s})
	}
	for _, r := range t.Rounds {
		f.seen++
		f.rounds.add(flightItem[TeleRound]{party: t.Party, v: r})
	}
	for _, fe := range t.Faults {
		f.seen++
		f.faults.add(flightItem[TeleFault]{party: t.Party, v: fe})
	}
	for _, e := range t.Events {
		f.seen++
		f.events.add(flightItem[TeleTransport]{party: t.Party, v: e})
	}
	f.mu.Unlock()
}

// Reset drops everything retained (tests; long-lived processes never
// need it — the rings bound memory by construction).
func (f *FlightRecorder) Reset() {
	f.mu.Lock()
	f.rounds = ring[flightItem[TeleRound]]{cap: flightRoundCap}
	f.spans = ring[flightItem[TeleSpan]]{cap: flightSpanCap}
	f.faults = ring[flightItem[TeleFault]]{cap: flightFaultCap}
	f.events = ring[flightItem[TeleTransport]]{cap: flightTransportCap}
	f.parties, f.offsets = nil, nil
	f.hasOpen = false
	f.latN = 0
	f.seen = 0
	f.ckptSaves, f.ckptResumes, f.ckptStep, f.ckptRound = 0, 0, 0, 0
	f.mu.Unlock()
}

// RoundQuantiles is the rolling round-latency summary: nearest-rank
// quantiles over the most recent Window completed rounds.
type RoundQuantiles struct {
	Window int     `json:"window"` // rounds in the window (0 = none yet)
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// FlightStats is the recorder's live summary, served as JSON by the
// status endpoints (under "flight") and consumed by cmd/mpctop.
type FlightStats struct {
	Enabled   bool           `json:"enabled"`
	Party     int            `json:"party"`
	Events    uint64         `json:"events"`    // total offered, retained or not
	Rounds    int            `json:"rounds"`    // retained round summaries
	Spans     int            `json:"spans"`     // retained machine spans
	Faults    int            `json:"faults"`    // retained fault/retry instants
	Transport int            `json:"transport"` // retained transport events
	Parties   int            `json:"parties"`   // lanes a dump would hold
	Latency   RoundQuantiles `json:"roundLatency"`
	// CheckpointSaves and CheckpointResumes count durability actions seen
	// by this process; both 0 when no checkpoint store is attached.
	CheckpointSaves   uint64 `json:"checkpointSaves,omitempty"`
	CheckpointResumes uint64 `json:"checkpointResumes,omitempty"`
}

// Quantiles returns the rolling round-latency quantiles.
func (f *FlightRecorder) Quantiles() RoundQuantiles {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.quantilesLocked()
}

func (f *FlightRecorder) quantilesLocked() RoundQuantiles {
	n := int(f.latN)
	if n > flightLatWindow {
		n = flightLatWindow
	}
	if n == 0 {
		return RoundQuantiles{}
	}
	durs := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		durs[i] = time.Duration(f.lat[i])
	}
	q := Quantiles(durs)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return RoundQuantiles{Window: n, P50Ms: ms(q.P50), P95Ms: ms(q.P95), P99Ms: ms(q.P99)}
}

// Stats returns the live summary. Enabled reflects the process-global
// switch, which is what decides whether this recorder sees events.
func (f *FlightRecorder) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	parties := 1
	for p := range f.parties {
		if p != f.party {
			parties++
		}
	}
	return FlightStats{
		Enabled:           FlightEnabled(),
		Party:             f.party,
		Events:            f.seen,
		Rounds:            f.rounds.n,
		Spans:             f.spans.n,
		Faults:            f.faults.n,
		Transport:         f.events.n,
		Parties:           parties,
		Latency:           f.quantilesLocked(),
		CheckpointSaves:   f.ckptSaves,
		CheckpointResumes: f.ckptResumes,
	}
}

// Telemetry snapshots the retained window as per-party wire batches — the
// same shape a live telemetry consumer would have collected, restricted
// to the recent past.
func (f *FlightRecorder) Telemetry() []Telemetry {
	f.mu.Lock()
	defer f.mu.Unlock()
	byParty := map[int]*Telemetry{}
	get := func(p int) *Telemetry {
		t, ok := byParty[p]
		if !ok {
			t = &Telemetry{Party: p, OffsetNs: f.offsets[p]}
			byParty[p] = t
		}
		return t
	}
	for _, it := range f.rounds.items() {
		t := get(it.party)
		t.Rounds = append(t.Rounds, it.v)
	}
	if f.hasOpen {
		// The in-flight round, end still unknown: EndNs stays 0 and
		// BuildClusterTrace renders it as an instant at its start.
		t := get(f.party)
		t.Rounds = append(t.Rounds, f.open)
	}
	for _, it := range f.spans.items() {
		t := get(it.party)
		t.Spans = append(t.Spans, it.v)
	}
	for _, it := range f.faults.items() {
		t := get(it.party)
		t.Faults = append(t.Faults, it.v)
	}
	for _, it := range f.events.items() {
		t := get(it.party)
		t.Events = append(t.Events, it.v)
	}
	var out []Telemetry
	for _, t := range byParty {
		out = append(out, *t)
	}
	return MergeTelemetry(out) // sorts by party
}

// Dump renders the retained window as a merged cluster trace (one process
// lane per party plus the transport lane), with one extra "flight
// recorder" lane carrying the rolling round-latency quantiles as an
// instant event. The output passes cmd/tracecheck.
func (f *FlightRecorder) Dump() *ClusterTrace {
	t := BuildClusterTrace(f.Telemetry())
	q := f.Quantiles()
	f.mu.Lock()
	seen := f.seen
	ckSaves, ckResumes := f.ckptSaves, f.ckptResumes
	ckStep, ckRound := f.ckptStep, f.ckptRound
	f.mu.Unlock()

	pid := 0
	for _, ev := range t.file.TraceEvents {
		if ev.Pid >= pid {
			pid = ev.Pid + 1
		}
	}
	t.file.TraceEvents = append(t.file.TraceEvents,
		chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": "flight recorder"}},
		chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "round quantiles"}},
		chromeEvent{Name: "round-latency", Ph: "i", Pid: pid, Tid: 0, Ts: 0,
			Args: map[string]any{
				"window": q.Window,
				"p50Ms":  q.P50Ms,
				"p95Ms":  q.P95Ms,
				"p99Ms":  q.P99Ms,
				"events": seen,
			}})
	if ckSaves > 0 || ckResumes > 0 {
		// The dump's durability marker: how far the checkpoint store got
		// before whatever prompted this dump happened.
		t.file.TraceEvents = append(t.file.TraceEvents,
			chromeEvent{Name: "checkpoint", Cat: "checkpoint", Ph: "i", Pid: pid, Tid: 0, Ts: 0,
				Args: map[string]any{
					"saves":     ckSaves,
					"resumes":   ckResumes,
					"lastStep":  ckStep,
					"lastRound": ckRound,
				}})
	}
	return t
}

// SetAutoDump installs the callback fired (debounced, synchronously) by
// automatic triggers: retry-budget exhaustion, transport peer loss, and
// the server's degraded fallback. internal/traceio.ArmFlight installs a
// callback that writes Dump() to a file. A nil fn disarms.
func (f *FlightRecorder) SetAutoDump(fn func(reason string)) {
	f.dump.Store(autoDump{fn})
}

// autoDump wraps the callback so atomic.Value accepts nil fns (a bare
// func value of nil has no type and Store would panic).
type autoDump struct{ fn func(reason string) }

// Trigger fires the auto-dump callback with the given reason, debounced
// to at most one dump per second so failure storms cost one write.
func (f *FlightRecorder) Trigger(reason string) {
	v, _ := f.dump.Load().(autoDump)
	if v.fn == nil {
		return
	}
	now := time.Now().UnixNano()
	last := f.lastDump.Load()
	if now-last < int64(flightDumpDebounce) || !f.lastDump.CompareAndSwap(last, now) {
		return
	}
	v.fn(reason)
}

// ---- process-global recorder -------------------------------------------

// flightOff is the process-global kill switch, default off (recorder on).
// It is read once per cluster construction / event-source wiring, not per
// event.
var flightOff atomic.Bool

var globalFlight = NewFlightRecorder()

func init() {
	if flightEnvOff(os.Getenv("MPCDIST_FLIGHT")) {
		flightOff.Store(true)
	}
}

// flightEnvOff interprets the MPCDIST_FLIGHT environment variable; only
// explicit negatives disable the recorder.
func flightEnvOff(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "off", "0", "false", "no", "disabled":
		return true
	}
	return false
}

// Flight returns the process-global flight recorder. It exists (and
// records, when enabled) without any setup: mpc.NewCluster attaches it to
// every cluster, and the transport layer feeds it telemetry and transport
// events on distributed runs.
func Flight() *FlightRecorder { return globalFlight }

// FlightEnabled reports whether the process-global recorder is on.
// Default on; MPCDIST_FLIGHT=off (or SetFlightEnabled(false)) turns it
// off — the observability contract guarantees identical deterministic
// counters either way.
func FlightEnabled() bool { return !flightOff.Load() }

// SetFlightEnabled flips the process-global recorder. Clusters and
// transports wire the recorder at construction time, so the switch
// affects subsequently created ones.
func SetFlightEnabled(on bool) { flightOff.Store(!on) }

// WithFlight composes the process-global recorder behind obs: the
// observer every cluster actually runs with. With the recorder disabled
// it returns obs unchanged; with no observer it returns the recorder
// alone, so the hot path pays one interface call, not a Multi walk.
func WithFlight(obs Observer) Observer {
	if !FlightEnabled() {
		return obs
	}
	if obs == nil {
		return globalFlight
	}
	return Multi(obs, globalFlight)
}

// FlightIngest folds a telemetry batch into the global recorder (no-op
// when disabled). The transport's coordinator calls it for every batch a
// worker ships, whether or not a full telemetry consumer is attached.
func FlightIngest(t Telemetry) {
	if FlightEnabled() {
		globalFlight.Ingest(t)
	}
}

// FlightTransport records a transport-level event into the global
// recorder (no-op when disabled).
func FlightTransport(e TransportEvent) {
	if FlightEnabled() {
		globalFlight.Transport(e)
	}
}

// FlightTrigger fires the global recorder's auto-dump (no-op when
// disabled or disarmed).
func FlightTrigger(reason string) {
	if FlightEnabled() {
		globalFlight.Trigger(reason)
	}
}
