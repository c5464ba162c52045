package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// Telemetry is the wire form of one party's buffered trace events: the
// payload a worker ships to the coordinator at round barriers and on job
// completion. Every field is exported and every timestamp is an int64
// nanosecond value so the struct travels through internal/transport's
// reflection codec unchanged (time.Time does not).
//
// Timestamps are in the *producing party's* clock. OffsetNs is the
// party's estimate of (coordinator clock - local clock), computed at
// handshake time from the hello/welcome round trip (NTP-style midpoint);
// adding it to any timestamp rebases the event onto the coordinator's
// timeline. The coordinator's own telemetry has OffsetNs == 0.
//
// Telemetry is strictly out-of-band: nothing in it feeds a deterministic
// model counter, and a run's results are bit-identical whether or not it
// is collected or shipped.
type Telemetry struct {
	Party    int
	OffsetNs int64
	Spans    []TeleSpan
	Rounds   []TeleRound
	Faults   []TeleFault
	Events   []TeleTransport
}

// TeleSpan is a MachineSpan flattened for the wire.
type TeleSpan struct {
	Round    int
	Machine  int
	Name     string
	Phase    string
	StartNs  int64
	EndNs    int64
	QueueNs  int64
	Ops      int64
	InWords  int
	OutWords int
	Sends    int
	Fanout   int
}

// TeleRound is a RoundSummary flattened for the wire. StartNs/EndNs are 0
// when no machine ran (pre-flight failure).
type TeleRound struct {
	Round     int
	Name      string
	Phase     string
	Machines  int
	StartNs   int64
	EndNs     int64
	QueueNs   int64
	TotalOps  int64
	CommWords int64
	Failures  int
	Retries   int
	Err       string
}

// TeleFault is a FaultEvent or RetryEvent flattened for the wire; Retry
// distinguishes the two (a retry's Kind is the fault being recovered).
type TeleFault struct {
	Round   int
	Machine int
	Name    string
	Phase   string
	Kind    string
	Attempt int
	Retry   bool
	AtNs    int64
}

// TeleTransport is a TransportEvent flattened for the wire, plus the
// synthetic "peer-stats" events the coordinator emits at job end (RTTNs
// carries the heartbeat RTT p99 for those).
type TeleTransport struct {
	Kind  string
	Party int
	Seq   int
	IDs   int
	Bytes int64
	RTTNs int64
	AtNs  int64
}

// TransportPeerStats is the Kind of the synthetic per-peer counter events
// synthesized into the transport lane of a merged cluster trace.
const TransportPeerStats = "peer-stats"

func nsOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// DrainTelemetry moves the collector's buffered events into a wire
// Telemetry and clears them, so successive drains ship disjoint batches.
// Spans marked Remote are skipped (they are another party's work, replayed
// locally; that party ships them itself). The second result is false when
// there was nothing to ship. Party and OffsetNs are left zero — the
// transport stamps them at send time.
func (c *Collector) DrainTelemetry() (Telemetry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t Telemetry
	for _, s := range c.Spans {
		if s.Remote {
			continue
		}
		t.Spans = append(t.Spans, TeleSpan{
			Round: s.Round, Machine: s.Machine, Name: s.Name, Phase: string(s.Phase),
			StartNs: nsOf(s.Start), EndNs: nsOf(s.End), QueueNs: int64(s.QueueWait),
			Ops: s.Ops, InWords: s.InWords, OutWords: s.OutWords,
			Sends: s.Sends, Fanout: s.Fanout,
		})
	}
	for _, r := range c.Summaries {
		t.Rounds = append(t.Rounds, TeleRound{
			Round: r.Round, Name: r.Name, Phase: string(r.Phase), Machines: r.Machines,
			StartNs: nsOf(r.Start), EndNs: nsOf(r.End), QueueNs: int64(r.QueueWait),
			TotalOps: r.TotalOps, CommWords: r.CommWords,
			Failures: r.Failures, Retries: r.Retries, Err: r.Err,
		})
	}
	for _, f := range c.Faults {
		t.Faults = append(t.Faults, TeleFault{
			Round: f.Round, Machine: f.Machine, Name: f.Name, Phase: string(f.Phase),
			Kind: string(f.Kind), Attempt: f.Attempt, AtNs: nsOf(f.At),
		})
	}
	for _, r := range c.Retries {
		t.Faults = append(t.Faults, TeleFault{
			Round: r.Round, Machine: r.Machine, Name: r.Name, Phase: string(r.Phase),
			Kind: string(r.Kind), Attempt: r.Attempt, Retry: true, AtNs: nsOf(r.At),
		})
	}
	for _, e := range c.Transports {
		t.Events = append(t.Events, TeleTransport{
			Kind: e.Kind, Party: e.Party, Seq: e.Seq, IDs: e.IDs, Bytes: e.Bytes,
			AtNs: nsOf(e.At),
		})
	}
	c.Spans, c.Summaries, c.Faults, c.Retries, c.Transports = nil, nil, nil, nil, nil
	empty := len(t.Spans) == 0 && len(t.Rounds) == 0 && len(t.Faults) == 0 && len(t.Events) == 0
	return t, !empty
}

// MergeTelemetry coalesces batches by party: a worker that flushed at
// several round barriers produced several Telemetry values, which merge
// into one per party (slices append in arrival order; the first batch's
// OffsetNs wins — the offset is a per-handshake constant). The result is
// sorted by party.
func MergeTelemetry(batches []Telemetry) []Telemetry {
	byParty := map[int]*Telemetry{}
	var order []int
	for _, b := range batches {
		m, ok := byParty[b.Party]
		if !ok {
			cp := Telemetry{Party: b.Party, OffsetNs: b.OffsetNs}
			byParty[b.Party] = &cp
			m = &cp
			order = append(order, b.Party)
		}
		m.Spans = append(m.Spans, b.Spans...)
		m.Rounds = append(m.Rounds, b.Rounds...)
		m.Faults = append(m.Faults, b.Faults...)
		m.Events = append(m.Events, b.Events...)
	}
	sort.Ints(order)
	out := make([]Telemetry, 0, len(order))
	for _, p := range order {
		out = append(out, *byParty[p])
	}
	return out
}

// ClusterTrace is a merged multi-process Chrome trace assembled from the
// telemetry of every party in a distributed run. Build it with
// BuildClusterTrace; it renders like Chrome (JSON / WriteTo).
type ClusterTrace struct {
	file chromeFile
}

// BuildClusterTrace merges per-party telemetry into one Chrome trace-event
// file: one process lane per party (pid = party index; party 0 is the
// coordinator), with the familiar per-process layout — tid 0 is the rounds
// track, machine m is tid m+1, faults and retries are instants — plus one
// extra "transport" process lane holding the coordinator's wire-level
// events on one track per peer.
//
// Every timestamp is rebased onto the coordinator's clock via the party's
// OffsetNs before the common epoch (the earliest rebased event) is
// subtracted, so lanes from different processes line up on one timeline.
// The hello/welcome midpoint estimate is typically accurate to well under
// a millisecond on one host; see docs/OBSERVABILITY.md for caveats.
func BuildClusterTrace(parties []Telemetry) *ClusterTrace {
	parties = MergeTelemetry(parties)

	// Epoch: the earliest rebased timestamp across every party.
	var epoch int64
	seenAny := false
	observe := func(ns, off int64) {
		if ns == 0 {
			return
		}
		if v := ns + off; !seenAny || v < epoch {
			epoch, seenAny = v, true
		}
	}
	maxParty := 0
	for _, p := range parties {
		if p.Party > maxParty {
			maxParty = p.Party
		}
		for _, s := range p.Spans {
			observe(s.StartNs, p.OffsetNs)
		}
		for _, r := range p.Rounds {
			observe(r.StartNs, p.OffsetNs)
		}
		for _, f := range p.Faults {
			observe(f.AtNs, p.OffsetNs)
		}
		for _, e := range p.Events {
			observe(e.AtNs, p.OffsetNs)
		}
	}
	transportPid := maxParty + 1

	us := func(ns, off int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(ns+off-epoch) / 1e3
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
	partyName := func(p int) string {
		if p == 0 {
			return "coordinator (party 0)"
		}
		return "worker (party " + strconv.Itoa(p) + ")"
	}

	for _, p := range parties {
		pid, off := p.Party, p.OffsetNs
		proc(pid, partyName(p.Party))
		for _, r := range p.Rounds {
			meta(pid, roundsTrack, "rounds")
			args := map[string]any{
				"round":     r.Round,
				"phase":     r.Phase,
				"machines":  r.Machines,
				"totalOps":  r.TotalOps,
				"commWords": r.CommWords,
				"party":     p.Party,
			}
			if r.Failures > 0 {
				args["failures"] = r.Failures
			}
			if r.Retries > 0 {
				args["retries"] = r.Retries
			}
			if r.Err != "" {
				args["error"] = r.Err
			}
			ev := chromeEvent{Name: r.Name, Cat: r.Phase, Ph: "X", Pid: pid, Tid: roundsTrack,
				Ts: us(r.StartNs, off), Dur: float64(r.EndNs-r.StartNs) / 1e3, Args: args}
			if r.StartNs == 0 || r.EndNs < r.StartNs {
				// No machine ran (pre-flight failure), or the round is still
				// open (a flight-recorder dump taken mid-round): an instant
				// keeps it visible without a negative duration.
				ev.Ph, ev.Dur = "i", 0
			}
			events = append(events, ev)
		}
		for _, s := range p.Spans {
			meta(pid, s.Machine+1, "machine "+strconv.Itoa(s.Machine))
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Phase, Ph: "X", Pid: pid, Tid: s.Machine + 1,
				Ts: us(s.StartNs, off), Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Args: map[string]any{
					"round":       s.Round,
					"phase":       s.Phase,
					"ops":         s.Ops,
					"inWords":     s.InWords,
					"outWords":    s.OutWords,
					"sends":       s.Sends,
					"fanout":      s.Fanout,
					"queueWaitUs": s.QueueNs / 1e3,
					"party":       p.Party,
				},
			})
		}
		for _, f := range p.Faults {
			meta(pid, f.Machine+1, "machine "+strconv.Itoa(f.Machine))
			name := EventFault
			if f.Retry {
				name = EventRetry
			}
			events = append(events, chromeEvent{
				Name: name, Cat: "fault", Ph: "i", Pid: pid, Tid: f.Machine + 1,
				Ts: us(f.AtNs, off), Args: map[string]any{
					"round":   f.Round,
					"kind":    f.Kind,
					"attempt": f.Attempt,
				},
			})
		}
		for _, e := range p.Events {
			// Transport events render on the dedicated transport lane: one
			// track per remote peer, plus a session track for events not
			// tied to a peer.
			tid := 0
			tname := "session"
			if e.Party > 0 {
				tid = e.Party
				tname = "peer " + strconv.Itoa(e.Party)
			}
			proc(transportPid, "transport")
			meta(transportPid, tid, tname)
			args := map[string]any{
				"kind":  e.Kind,
				"party": e.Party,
				"bytes": e.Bytes,
			}
			if e.Seq > 0 {
				args["seq"] = e.Seq
			}
			if e.IDs > 0 {
				args["machines"] = e.IDs
			}
			if e.RTTNs > 0 {
				args["rttP99Us"] = e.RTTNs / 1e3
			}
			events = append(events, chromeEvent{
				Name: e.Kind, Cat: "transport", Ph: "i", Pid: transportPid, Tid: tid,
				Ts: us(e.AtNs, off), Args: args,
			})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
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

// Events reports how many events the merged trace holds, metadata included.
func (t *ClusterTrace) Events() int { return len(t.file.TraceEvents) }

// JSON renders the merged trace as a Chrome trace-event file.
func (t *ClusterTrace) JSON() ([]byte, error) { return json.Marshal(t.file) }

// WriteTo writes the merged trace to w (indented, like Chrome.WriteTo).
func (t *ClusterTrace) WriteTo(w io.Writer) (int64, error) {
	buf, err := json.MarshalIndent(t.file, "", " ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}
