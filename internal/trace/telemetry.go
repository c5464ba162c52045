package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// EventKind says which observer event an Event records.
type EventKind uint8

const (
	KindSpan       EventKind = iota + 1 // a machine's execution (MachineSpan)
	KindRound                           // a round's summary (RoundSummary)
	KindFault                           // an injected fault (FaultEvent)
	KindRetry                           // a machine replay (RetryEvent)
	KindTransport                       // a transport occurrence (TransportEvent)
	KindCheckpoint                      // a durability action (CheckpointEvent)
)

// Event is one record of the event log. It is flat — every field
// exported, every time an int64 of Unix nanoseconds with 0 for "none" —
// so batches of events travel through internal/transport's reflection
// codec unchanged (time.Time does not). The fields each kind uses:
//
//	KindSpan         Round Machine Name Phase StartNs EndNs QueueNs Ops
//	                 InWords OutWords Sends Fanout
//	KindRound        Round Name Phase StartNs EndNs QueueNs Ops Words
//	                 Machines Failures Retries Straggler; Detail = error
//	KindFault/Retry  Round Machine Name Phase StartNs; Seq = attempt,
//	                 Detail = fault kind
//	KindTransport    Peer Seq Machines StartNs; Words = bytes on the
//	                 wire, QueueNs = heartbeat RTT p99 (peer-stats only),
//	                 Detail = transport kind
//	KindCheckpoint   Round Name Phase StartNs; Seq = step, Detail = kind
//
// StartNs is the instant's time for the kinds without a duration.
type Event struct {
	Name      string
	Phase     Phase
	Detail    string
	StartNs   int64
	EndNs     int64
	QueueNs   int64 // slot wait: a machine's own, a round's sum
	Ops       int64 // a machine's ops, a round's total
	Words     int64 // a round's communication words, a transport event's wire bytes
	Straggler float64
	Party     int32 // the party whose process logged the event (0 = the coordinator)
	Round     int32
	Machine   int32
	Peer      int32 // the remote party of a transport event (0 = the coordinator, -1 = none)
	Seq       int32
	InWords   int32
	OutWords  int32
	Sends     int32
	Fanout    int32
	Machines  int32
	Failures  int32
	Retries   int32
	Kind      EventKind
}

func nsOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func spanEvent(s MachineSpan) Event {
	return Event{Kind: KindSpan, Round: int32(s.Round), Machine: int32(s.Machine), Name: s.Name,
		Phase: s.Phase, StartNs: nsOf(s.Start), EndNs: nsOf(s.End), QueueNs: int64(s.QueueWait),
		Ops: s.Ops, InWords: int32(s.InWords), OutWords: int32(s.OutWords),
		Sends: int32(s.Sends), Fanout: int32(s.Fanout)}
}

func roundEvent(r RoundSummary) Event {
	return Event{Kind: KindRound, Round: int32(r.Round), Name: r.Name, Phase: r.Phase,
		Machines: int32(r.Machines), StartNs: nsOf(r.Start), EndNs: nsOf(r.End),
		QueueNs: int64(r.QueueWait), Ops: r.TotalOps, Words: r.CommWords,
		Failures: int32(r.Failures), Retries: int32(r.Retries), Straggler: r.Skew.Straggler,
		Detail: r.Err}
}

// faultEvent records a fault, or (kind KindRetry) a RetryEvent, whose
// fields are the same.
func faultEvent(kind EventKind, e FaultEvent) Event {
	return Event{Kind: kind, Round: int32(e.Round), Name: e.Name, Phase: e.Phase,
		Machine: int32(e.Machine), Detail: string(e.Kind), Seq: int32(e.Attempt), StartNs: nsOf(e.At)}
}

func transportEvent(e TransportEvent) Event {
	return Event{Kind: KindTransport, Detail: e.Kind, Peer: int32(e.Party), Seq: int32(e.Seq),
		Machines: int32(e.IDs), Words: e.Bytes, StartNs: nsOf(e.At)}
}

func checkpointEvent(e CheckpointEvent) Event {
	return Event{Kind: KindCheckpoint, Round: int32(e.Round), Name: e.Name, Phase: e.Phase,
		Detail: e.Kind, Seq: int32(e.Step), StartNs: nsOf(e.At)}
}

// ClusterTrace is a Chrome trace-event file (the format Perfetto and
// chrome://tracing load) rendered from an event log by BuildClusterTrace.
// Every trace the repo writes has this one format.
type ClusterTrace struct {
	file chromeFile
}

// chromeEvent is one trace event in Chrome's JSON schema. Cat carries the
// round's paper phase as the event category, so Perfetto's category filter
// isolates one phase across every machine track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds since trace epoch
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// roundsTrack is the tid of a party's round track; machine m renders on
// tid m+1 so machine ids (which start at 0) never collide with it.
const roundsTrack = 0

// BuildClusterTrace renders an event log as one Chrome trace-event file:
// one process lane per party (pid = the event's Party; party 0 is the
// coordinator, and a local run is a cluster of that one party). Within a
// lane, tid 0 is the rounds track (round spans and checkpoint instants)
// and machine m is tid m+1 (machine spans, fault and retry instants). One
// extra "transport" lane holds the wire-level events on one track per
// peer link, plus a session track for events not tied to a peer.
//
// Every timestamp is on the coordinator's clock — a worker rebases its
// events by its handshake offset before it ships them — so subtracting the
// common epoch (the earliest timestamp) lines up lanes from different
// processes on one timeline. The hello/welcome midpoint estimate is
// typically accurate to well under a millisecond on one host; see
// docs/OBSERVABILITY.md for caveats.
func BuildClusterTrace(log []Event) *ClusterTrace {
	var epoch int64
	maxParty := 0
	for _, e := range log {
		maxParty = max(maxParty, int(e.Party))
		if e.StartNs != 0 && (epoch == 0 || e.StartNs < epoch) {
			epoch = e.StartNs
		}
	}
	transportPid := maxParty + 1
	us := func(ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(ns-epoch) / 1e3
	}

	type track struct{ pid, tid int }
	seen := map[track]bool{}
	procs := map[int]bool{}
	var events []chromeEvent
	meta := func(pid, tid int, name string) {
		if seen[track{pid, tid}] {
			return
		}
		seen[track{pid, tid}] = true
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"sort_index": tid}})
	}
	proc := func(pid int, name string) {
		if procs[pid] {
			return
		}
		procs[pid] = true
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}

	for _, e := range log {
		pid := int(e.Party)
		if pid == 0 {
			proc(pid, "coordinator (party 0)")
		} else {
			proc(pid, "worker (party "+strconv.Itoa(pid)+")")
		}
		ev := chromeEvent{Name: e.Name, Cat: string(e.Phase), Ph: "i", Pid: pid,
			Tid: int(e.Machine) + 1, Ts: us(e.StartNs)}
		switch e.Kind {
		case KindRound:
			ev.Tid, ev.Args = roundsTrack, roundArgs(e, pid)
			if e.StartNs != 0 && e.EndNs >= e.StartNs {
				ev.Ph, ev.Dur = "X", float64(e.EndNs-e.StartNs)/1e3
			}
			// Otherwise no machine ran (pre-flight failure), or the
			// round is still open (a flight dump taken mid-round): an
			// instant keeps it visible without a negative duration.
		case KindSpan:
			ev.Ph, ev.Dur = "X", float64(e.EndNs-e.StartNs)/1e3
			ev.Args = map[string]any{
				"round":       e.Round,
				"phase":       string(e.Phase),
				"ops":         e.Ops,
				"inWords":     e.InWords,
				"outWords":    e.OutWords,
				"sends":       e.Sends,
				"fanout":      e.Fanout,
				"queueWaitUs": e.QueueNs / 1e3,
				"party":       pid,
			}
		case KindFault, KindRetry:
			ev.Name, ev.Cat = EventFault, "fault"
			if e.Kind == KindRetry {
				ev.Name = EventRetry
			}
			ev.Args = map[string]any{"round": e.Round, "kind": e.Detail, "attempt": e.Seq}
		case KindCheckpoint:
			ev.Tid, ev.Name, ev.Cat = roundsTrack, "checkpoint", "checkpoint"
			ev.Args = map[string]any{"round": e.Round, "kind": e.Detail, "step": e.Seq}
		case KindTransport:
			ev = transportChromeEvent(e, pid, transportPid, us(e.StartNs))
			proc(transportPid, "transport")
		default:
			continue
		}
		meta(ev.Pid, ev.Tid, trackName(ev, transportPid))
		events = append(events, ev)
	}

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		// Metadata first within a process.
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Name < b.Name
	})
	return &ClusterTrace{file: chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}}
}

// roundArgs are a round span's args. Fault counters and the error appear
// only when set, so fault-free traces carry none of them.
func roundArgs(e Event, party int) map[string]any {
	args := map[string]any{
		"round":       e.Round,
		"phase":       string(e.Phase),
		"machines":    e.Machines,
		"totalOps":    e.Ops,
		"commWords":   e.Words,
		"queueWaitUs": e.QueueNs / 1e3,
		"straggler":   e.Straggler,
		"party":       party,
	}
	if e.Failures > 0 {
		args["failures"] = e.Failures
	}
	if e.Retries > 0 {
		args["retries"] = e.Retries
	}
	if e.Detail != "" {
		args["error"] = e.Detail
	}
	return args
}

// transportChromeEvent renders a transport event on the transport lane.
// The coordinator's events go on their peer's track (the session track
// when no peer is involved); a worker's own events go on its link's
// track, since its only peer is the coordinator.
func transportChromeEvent(e Event, party, pid int, ts float64) chromeEvent {
	tid := max(int(e.Peer), 0)
	if party != 0 {
		tid = party
	}
	args := map[string]any{"kind": e.Detail, "party": e.Peer, "bytes": e.Words}
	if e.Seq > 0 {
		args["seq"] = e.Seq
	}
	if e.Machines > 0 {
		args["machines"] = e.Machines
	}
	if e.QueueNs > 0 {
		args["rttP99Us"] = e.QueueNs / 1e3
	}
	return chromeEvent{Name: e.Detail, Cat: "transport", Ph: "i", Pid: pid, Tid: tid, Ts: ts, Args: args}
}

// trackName names the track an event renders on.
func trackName(ev chromeEvent, transportPid int) string {
	switch {
	case ev.Pid == transportPid && ev.Tid == 0:
		return "session"
	case ev.Pid == transportPid:
		return "peer " + strconv.Itoa(ev.Tid)
	case ev.Tid == roundsTrack:
		return "rounds"
	}
	return "machine " + strconv.Itoa(ev.Tid-1)
}

// Events reports how many events the trace holds, metadata included.
func (t *ClusterTrace) Events() int { return len(t.file.TraceEvents) }

// JSON renders the trace as a Chrome trace-event file.
func (t *ClusterTrace) JSON() ([]byte, error) { return json.Marshal(t.file) }

// WriteTo writes the trace to w, indented, since the files are meant to
// be opened and occasionally read by humans.
func (t *ClusterTrace) WriteTo(w io.Writer) (int64, error) {
	buf, err := json.MarshalIndent(t.file, "", " ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}
