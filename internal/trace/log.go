package trace

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LogCapacity is how many events a bounded Log retains. The process log
// is always on by default, so LogCapacity times the size of an Event is
// its whole memory budget, pinned by a test at 512 KiB.
const LogCapacity = 3072

const (
	// latencyWindow caps the rounds the rolling latency quantiles read.
	latencyWindow = 256

	// corruptBurst is how many corrupt-frame events auto-trigger a dump:
	// one flipped bit is chaos-as-usual, a burst means a dirty link worth
	// a post-mortem.
	corruptBurst = 8

	// dumpDebounce is the minimum interval between automatic dumps: a
	// fault storm (many peers lost, many rounds exhausting retries)
	// produces one dump, not one per trigger.
	dumpDebounce = time.Second
)

// Log is an event log: an Observer that turns every event into one Event
// record and appends it. Each process has one (Flight); every view of a
// run reads it — the Chrome export (Trace), telemetry shipping (Drain on a
// worker, Ingest on the coordinator), flight dumps (Dump), the live stats
// and the round-latency quantiles (Stats).
//
// A Log is an overwrite-oldest ring of LogCapacity events, with two
// exceptions:
//
//   - after Keep it keeps every event: a caller asked for a trace;
//   - after the first Drain it never overwrites an event a Drain has not
//     returned yet: it grows instead, and the next Drain shrinks it back.
//
// MachineStart is a no-op and remote spans are skipped: the party that
// executed a machine logs its span.
//
// The log is strictly out-of-band: nothing it holds feeds a deterministic
// model counter, so a run's results are bit-identical whether it records
// or not (the dist parity suite and CI's output diff enforce this).
type Log struct {
	mu        sync.Mutex
	party     int32   // the party this process's own events belong to
	buf       []Event // ring storage, grown on demand
	start     int     // position of the oldest retained event in buf
	n         int     // events retained
	total     uint64  // events ever logged: the retained ones are [total-n, total)
	undrained int     // newest retained events no Drain has returned
	keep      bool    // keep every event (Keep)
	drained   bool    // keep undrained events (Drain)
	open      Event   // the local round executing now; Kind 0 when none

	corrupt        uint64 // corrupt-frame transport events, for the burst trigger
	saves, resumes uint64 // checkpoint actions ever logged
	lastCheckpoint Event
	dump           atomic.Value // autoDump
	lastDump       atomic.Int64 // UnixNano of the last auto dump, for debouncing
}

// NewLog returns an empty bounded log. Most callers use the process's
// log, Flight, instead; a caller that must not share it (a traced server
// request, among concurrent others) keeps one of its own.
func NewLog() *Log { return &Log{} }

// SetParty declares which party this process's own events belong to (0,
// the coordinator, by default). Worker processes call it after the
// transport handshake so their lane is labeled correctly in dumps.
func (l *Log) SetParty(p int) {
	l.mu.Lock()
	l.party = int32(p)
	l.mu.Unlock()
}

// Keep makes l keep every event from now on, for a trace a caller asked
// for.
func (l *Log) Keep() {
	l.mu.Lock()
	l.keep = true
	l.mu.Unlock()
}

// requested reports whether a trace (Keep) or a telemetry stream (Drain)
// reads l, which makes the process log record even with the flight
// recorder switched off.
func (l *Log) requested() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keep || l.drained
}

func (l *Log) at(i int) Event { return l.buf[(l.start+i)%len(l.buf)] }

// add appends e; l.mu is held.
func (l *Log) add(e Event) {
	if l.n == len(l.buf) {
		grown := max(2*len(l.buf), 64)
		switch {
		case l.keep || l.drained && l.undrained == l.n:
			l.resize(grown)
		case len(l.buf) < LogCapacity:
			l.resize(min(grown, LogCapacity))
		default: // overwrite the oldest
			l.start = (l.start + 1) % len(l.buf)
			l.n--
		}
	}
	l.buf[(l.start+l.n)%len(l.buf)] = e
	l.n++
	l.total++
	l.undrained = min(l.undrained+1, l.n)
}

// resize moves the newest retained events, as many as fit, into a new
// buffer of the given size.
func (l *Log) resize(size int) {
	buf := make([]Event, size)
	drop := max(l.n-size, 0)
	for i := drop; i < l.n; i++ {
		buf[i-drop] = l.at(i)
	}
	l.buf, l.start, l.n = buf, 0, l.n-drop
	l.undrained = min(l.undrained, l.n)
}

// log appends one of this process's own events.
func (l *Log) log(e Event) {
	l.mu.Lock()
	e.Party = l.party
	l.add(e)
	l.mu.Unlock()
}

// RoundStart tracks the round now executing, so a dump taken mid-round
// still shows it (as an instant: it has no end yet).
func (l *Log) RoundStart(r RoundInfo) {
	l.mu.Lock()
	l.open = Event{Kind: KindRound, Party: l.party, Round: int32(r.Round), Name: r.Name,
		Phase: r.Phase, Machines: int32(r.Machines), StartNs: time.Now().UnixNano()}
	l.mu.Unlock()
}

// MachineStart is a no-op: the span is logged whole at MachineEnd.
func (l *Log) MachineStart(round, machine, inWords int) {}

// MachineEnd logs the machine's execution span, unless another party
// executed the machine: that party logs — and ships — the span itself.
func (l *Log) MachineEnd(s MachineSpan) {
	if !s.Remote {
		l.log(spanEvent(s))
	}
}

// Fault logs an injected fault.
func (l *Log) Fault(e FaultEvent) {
	l.log(faultEvent(KindFault, e))
}

// Retry logs a recovery action.
func (l *Log) Retry(e RetryEvent) {
	l.log(faultEvent(KindRetry, FaultEvent(e)))
}

// RoundEnd closes the open round and logs its summary.
func (l *Log) RoundEnd(r RoundSummary) {
	l.mu.Lock()
	l.open = Event{}
	l.mu.Unlock()
	l.log(roundEvent(r))
}

// Transport logs a transport-level event and, on a peer loss or a burst
// of corrupt frames, fires the automatic dump trigger: that is exactly
// the moment the recent past is about to become interesting.
func (l *Log) Transport(e TransportEvent) {
	l.mu.Lock()
	ev := transportEvent(e)
	ev.Party = l.party
	l.add(ev)
	burst := false
	if e.Kind == TransportCorrupt {
		l.corrupt++
		burst = l.corrupt%corruptBurst == 0
	}
	l.mu.Unlock()
	if e.Kind == TransportPeerLost {
		l.Trigger("transport: " + TransportPeerLost)
	}
	if burst {
		l.Trigger("transport: corrupt-frame burst")
	}
}

// Checkpoint logs a durability action and counts it.
func (l *Log) Checkpoint(e CheckpointEvent) {
	l.mu.Lock()
	ev := checkpointEvent(e)
	ev.Party = l.party
	l.add(ev)
	if e.Kind == CheckpointSave {
		l.saves++
	} else {
		l.resumes++
	}
	l.lastCheckpoint = ev
	l.mu.Unlock()
}

// Ingest logs a remote party's telemetry batch, rebased onto this
// process's clock, so the coordinator's log holds every party's events.
func (l *Log) Ingest(t Telemetry) {
	rebase := func(ns int64) int64 {
		if ns == 0 {
			return 0
		}
		return ns + t.OffsetNs
	}
	l.mu.Lock()
	for _, e := range t.Events {
		e.Party = int32(t.Party)
		e.StartNs, e.EndNs = rebase(e.StartNs), rebase(e.EndNs)
		l.add(e)
	}
	l.mu.Unlock()
}

// Drain returns the events logged since the previous Drain as one batch
// (Party and OffsetNs are left for the shipper to stamp), false when there
// are none. The first call makes l a drained log: from then on it never
// overwrites an event a Drain has not returned, and it records even with
// the flight recorder switched off.
func (l *Log) Drain() (Telemetry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drained = true
	var t Telemetry
	for i := l.n - l.undrained; i < l.n; i++ {
		t.Events = append(t.Events, l.at(i))
	}
	l.undrained = 0
	if !l.keep && len(l.buf) > LogCapacity {
		l.resize(LogCapacity)
	}
	return t, len(t.Events) > 0
}

// Since returns the retained events logged at or after position from,
// one batch per party in party order. The local round still executing, if
// any, ends its party's batch with EndNs 0, so it renders as an instant.
func (l *Log) Since(from uint64) []Telemetry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var batches []Telemetry
	add := func(e Event) {
		if k := len(batches) - 1; k >= 0 && batches[k].Party == int(e.Party) {
			batches[k].Events = append(batches[k].Events, e)
			return
		}
		batches = append(batches, Telemetry{Party: int(e.Party), Events: []Event{e}})
	}
	first := l.total - uint64(l.n)
	for i := 0; i < l.n; i++ {
		if first+uint64(i) >= from {
			add(l.at(i))
		}
	}
	if l.open.Kind != 0 {
		add(l.open)
	}
	return MergeTelemetry(batches)
}

// Trace renders every retained event as a Chrome trace-event file.
func (l *Log) Trace() *ClusterTrace { return BuildClusterTrace(l.Since(0)) }

// Reset drops everything retained and every request (tests; long-lived
// processes never need it — the ring bounds memory by construction).
func (l *Log) Reset() {
	l.mu.Lock()
	l.buf, l.start, l.n, l.total, l.undrained = nil, 0, 0, 0, 0
	l.keep, l.drained, l.open = false, false, Event{}
	l.corrupt, l.saves, l.resumes, l.lastCheckpoint = 0, 0, 0, Event{}
	l.mu.Unlock()
}

// RoundQuantiles is the rolling round-latency summary: nearest-rank
// quantiles over the Window most recent local rounds still in the log
// that executed at least one machine (at most 256).
type RoundQuantiles struct {
	Window int     `json:"window"` // rounds in the window (0 = none yet)
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// FlightStats is the log's live summary, served as JSON by the status
// endpoints (under "flight") and consumed by cmd/mpctop.
type FlightStats struct {
	Enabled   bool           `json:"enabled"`
	Party     int            `json:"party"`
	Events    uint64         `json:"events"`    // total logged, retained or not
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

// quantiles reads the newest local rounds; remote rounds stay out, since
// the coordinator runs the same rounds itself. l.mu is held.
func (l *Log) quantiles() RoundQuantiles {
	var durs []time.Duration
	for i := l.n - 1; i >= 0 && len(durs) < latencyWindow; i-- {
		if e := l.at(i); e.Kind == KindRound && e.Party == l.party && e.StartNs != 0 {
			durs = append(durs, time.Duration(e.EndNs-e.StartNs))
		}
	}
	if len(durs) == 0 {
		return RoundQuantiles{}
	}
	q := Quantiles(durs)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return RoundQuantiles{Window: len(durs), P50Ms: ms(q.P50), P95Ms: ms(q.P95), P99Ms: ms(q.P99)}
}

// Stats returns the live summary. Enabled reflects the process-global
// flight recorder switch.
func (l *Log) Stats() FlightStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := FlightStats{Enabled: FlightEnabled(), Party: int(l.party), Events: l.total,
		Latency: l.quantiles(), CheckpointSaves: l.saves, CheckpointResumes: l.resumes}
	parties := map[int32]bool{l.party: true}
	for i := 0; i < l.n; i++ {
		e := l.at(i)
		parties[e.Party] = true
		switch e.Kind {
		case KindRound:
			st.Rounds++
		case KindSpan:
			st.Spans++
		case KindFault, KindRetry:
			st.Faults++
		case KindTransport:
			st.Transport++
		}
	}
	st.Parties = len(parties)
	return st
}

// Dump renders the retained window as a cluster trace with one extra
// "flight recorder" lane carrying the rolling round-latency quantiles and
// the checkpoint progress as instant events. The output passes
// cmd/tracecheck.
func (l *Log) Dump() *ClusterTrace {
	t := l.Trace()
	l.mu.Lock()
	q, total := l.quantiles(), l.total
	saves, resumes, last := l.saves, l.resumes, l.lastCheckpoint
	l.mu.Unlock()

	pid := 0
	for _, ev := range t.file.TraceEvents {
		pid = max(pid, ev.Pid+1)
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
				"events": total,
			}})
	if saves > 0 || resumes > 0 {
		// The dump's durability marker: how far the checkpoint store got
		// before whatever prompted this dump happened.
		t.file.TraceEvents = append(t.file.TraceEvents,
			chromeEvent{Name: "checkpoint", Cat: "checkpoint", Ph: "i", Pid: pid, Tid: 0, Ts: 0,
				Args: map[string]any{
					"saves":     saves,
					"resumes":   resumes,
					"lastStep":  last.Seq,
					"lastRound": last.Round,
				}})
	}
	return t
}

// SetAutoDump installs the callback fired (debounced, synchronously) by
// automatic triggers: retry-budget exhaustion, transport peer loss, and
// the server's degraded fallback. internal/traceio.ArmFlight installs a
// callback that writes Dump() to a file. A nil fn disarms.
func (l *Log) SetAutoDump(fn func(reason string)) {
	l.dump.Store(autoDump{fn})
}

// autoDump wraps the callback so atomic.Value accepts nil fns (a bare
// func value of nil has no type and Store would panic).
type autoDump struct{ fn func(reason string) }

// Trigger fires the auto-dump callback with the given reason, debounced
// to at most one dump per second so failure storms cost one write.
func (l *Log) Trigger(reason string) {
	v, _ := l.dump.Load().(autoDump)
	if v.fn == nil {
		return
	}
	now := time.Now().UnixNano()
	last := l.lastDump.Load()
	if now-last < int64(dumpDebounce) || !l.lastDump.CompareAndSwap(last, now) {
		return
	}
	v.fn(reason)
}

// ---- the process log ---------------------------------------------------

// flightOff is the process-global kill switch of the flight recorder,
// default off (recorder on). It is read once per cluster construction /
// event-source wiring, not per event.
var flightOff atomic.Bool

var processLog = NewLog()

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

// Flight returns the process log. While no trace is requested it is the
// always-on flight recorder: mpc.NewCluster attaches it to every cluster,
// and the transport layer feeds it transport events and the telemetry of
// remote parties on distributed runs.
func Flight() *Log { return processLog }

// FlightEnabled reports whether the flight recorder is on. Default on;
// MPCDIST_FLIGHT=off (or SetFlightEnabled(false)) turns it off — the
// observability contract guarantees identical deterministic counters
// either way.
func FlightEnabled() bool { return !flightOff.Load() }

// SetFlightEnabled flips the flight recorder. Clusters and transports
// wire the process log at construction time, so the switch affects
// subsequently created ones.
func SetFlightEnabled(on bool) { flightOff.Store(!on) }

// Recording reports whether the process log records: the flight recorder
// is on, or a trace or a telemetry stream reads the log.
func Recording() bool { return FlightEnabled() || processLog.requested() }

// WithFlight composes the process log behind obs: the observer every
// cluster actually runs with. When the log is not recording it returns
// obs unchanged; with no observer it returns the log alone, so the hot
// path pays one interface call, not a Multi walk.
func WithFlight(obs Observer) Observer {
	if !Recording() {
		return obs
	}
	if obs == nil {
		return processLog
	}
	return Multi(obs, processLog)
}

// FlightIngest logs a remote party's telemetry batch in the process log
// (no-op when it is not recording). The transport's coordinator calls it
// for every batch a worker ships.
func FlightIngest(t Telemetry) {
	if Recording() {
		processLog.Ingest(t)
	}
}

// FlightTransport logs a transport-level event in the process log (no-op
// when it is not recording).
func FlightTransport(e TransportEvent) {
	if Recording() {
		processLog.Transport(e)
	}
}

// FlightTrigger fires the process log's auto-dump (no-op when the flight
// recorder is disabled or disarmed).
func FlightTrigger(reason string) {
	if FlightEnabled() {
		processLog.Trigger(reason)
	}
}
