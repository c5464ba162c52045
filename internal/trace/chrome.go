package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Chrome is an Observer that exports a simulation as a Chrome trace-event
// JSON file (the format Perfetto and chrome://tracing load): one process
// per cluster run, one track (thread) per simulated machine plus a
// top-level "rounds" track, and one complete-event span per (round,
// machine) carrying the machine's ops, words, and fan-out as args.
//
// Events are buffered in memory; call WriteTo (or JSON) after the
// simulation finishes. The exporter is safe for concurrent use by the
// machine goroutines of a single cluster run, and successive runs may
// reuse one exporter (each shows up as its own process); but because run
// boundaries are inferred from round-index monotonicity in RoundStart, a
// single Chrome must NOT observe two clusters running concurrently —
// interleaved rounds would scramble the process assignment. Give each
// concurrent run its own Chrome instead.
type Chrome struct {
	mu        sync.Mutex
	spans     []chromeSpan
	rounds    []chromeRound
	instants  []chromeInstant
	pid       int
	lastRound int
	sawRound  bool
}

type chromeSpan struct {
	pid  int
	span MachineSpan
}

type chromeRound struct {
	pid     int
	summary RoundSummary
}

// chromeInstant is a fault, retry, or checkpoint action rendered as an
// instant event: fault/retry on the affected machine's track, checkpoint
// (machine -1) on the rounds track.
type chromeInstant struct {
	pid     int
	name    string // EventFault, EventRetry, or "checkpoint"
	cat     string // event category ("fault" or "checkpoint")
	machine int
	at      time.Time
	args    map[string]any
}

// NewChrome returns an empty exporter.
func NewChrome() *Chrome { return &Chrome{} }

// RoundStart tracks cluster boundaries: a round index that does not
// increase means a new cluster (or a Reset) started, which maps to a new
// process in the trace so successive runs do not overlap on one timeline.
func (c *Chrome) RoundStart(r RoundInfo) {
	c.mu.Lock()
	if c.sawRound && r.Round <= c.lastRound {
		c.pid++
	}
	c.sawRound = true
	c.lastRound = r.Round
	c.mu.Unlock()
}

// MachineStart is a no-op: the span is emitted whole at MachineEnd.
func (c *Chrome) MachineStart(round, machine, inWords int) {}

// MachineEnd records the machine's execution span.
func (c *Chrome) MachineEnd(s MachineSpan) {
	c.mu.Lock()
	c.spans = append(c.spans, chromeSpan{pid: c.pid, span: s})
	c.mu.Unlock()
}

// Message is a no-op: per-machine fan-out and output volume are already on
// the span's args, and per-message events would dwarf the trace.
func (c *Chrome) Message(round, from, to, words int) {}

// Fault records an injected fault as an instant event on the affected
// machine's track, category "fault".
func (c *Chrome) Fault(e FaultEvent) {
	args := map[string]any{
		"round":   e.Round,
		"kind":    string(e.Kind),
		"attempt": e.Attempt,
	}
	c.mu.Lock()
	c.instants = append(c.instants, chromeInstant{
		pid: c.pid, name: EventFault, cat: "fault", machine: e.Machine, at: e.At, args: args})
	c.mu.Unlock()
}

// Retry records a recovery action (a machine replay) as an instant event on
// the machine's track.
func (c *Chrome) Retry(e RetryEvent) {
	args := map[string]any{
		"round":   e.Round,
		"kind":    string(e.Kind),
		"attempt": e.Attempt,
	}
	c.mu.Lock()
	c.instants = append(c.instants, chromeInstant{
		pid: c.pid, name: EventRetry, cat: "fault", machine: e.Machine, at: e.At, args: args})
	c.mu.Unlock()
}

// Checkpoint records a durability action (round snapshot saved, or round
// fast-forwarded from one) as an instant event on the rounds track.
func (c *Chrome) Checkpoint(e CheckpointEvent) {
	args := map[string]any{
		"round": e.Round,
		"kind":  e.Kind,
		"step":  e.Step,
	}
	c.mu.Lock()
	c.instants = append(c.instants, chromeInstant{
		pid: c.pid, name: "checkpoint", cat: "checkpoint", machine: -1, at: e.At, args: args})
	c.mu.Unlock()
}

// RoundEnd records the round's aggregate span for the "rounds" track.
func (c *Chrome) RoundEnd(r RoundSummary) {
	c.mu.Lock()
	c.rounds = append(c.rounds, chromeRound{pid: c.pid, summary: r})
	c.mu.Unlock()
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

// roundsTrack is the tid of the per-round summary track; machine m renders
// on tid m+1 so machine ids (which start at 0) never collide with it.
const roundsTrack = 0

// build assembles the event list. The epoch is the earliest span start, so
// timestamps are offsets into the simulation rather than wall-clock values;
// events are sorted (pid, tid, ts, name) so the output is independent of
// goroutine interleaving during collection.
func (c *Chrome) build() chromeFile {
	c.mu.Lock()
	spans := append([]chromeSpan(nil), c.spans...)
	rounds := append([]chromeRound(nil), c.rounds...)
	instants := append([]chromeInstant(nil), c.instants...)
	c.mu.Unlock()

	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.span.Start.Before(epoch) {
			epoch = s.span.Start
		}
	}
	for _, r := range rounds {
		if !r.summary.Start.IsZero() && (epoch.IsZero() || r.summary.Start.Before(epoch)) {
			epoch = r.summary.Start
		}
	}
	for _, in := range instants {
		if !in.at.IsZero() && (epoch.IsZero() || in.at.Before(epoch)) {
			epoch = in.at
		}
	}
	us := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return float64(t.Sub(epoch)) / float64(time.Microsecond)
	}

	// Metadata: name each process and track, and pin the rounds track to
	// the top of its process group.
	type track struct{ pid, tid int }
	seen := map[track]bool{}
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
	procs := map[int]bool{}
	proc := func(pid int) {
		if procs[pid] {
			return
		}
		procs[pid] = true
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": "mpc cluster run " + strconv.Itoa(pid)}})
	}

	for _, r := range rounds {
		proc(r.pid)
		meta(r.pid, roundsTrack, "rounds")
		s := r.summary
		args := map[string]any{
			"round":       s.Round,
			"phase":       string(s.Phase),
			"machines":    s.Machines,
			"totalOps":    s.TotalOps,
			"commWords":   s.CommWords,
			"queueWaitUs": s.QueueWait.Microseconds(),
			"straggler":   s.Skew.Straggler,
		}
		// Fault counters appear only when nonzero, so fault-free traces
		// (including the golden test's) are unchanged.
		if s.Failures > 0 {
			args["failures"] = s.Failures
		}
		if s.Retries > 0 {
			args["retries"] = s.Retries
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		ev := chromeEvent{Name: s.Name, Cat: string(s.Phase), Ph: "X", Pid: r.pid, Tid: roundsTrack,
			Ts: us(s.Start), Dur: float64(s.Elapsed) / float64(time.Microsecond), Args: args}
		if s.Start.IsZero() {
			// No machine ran (pre-flight failure or cancellation): an
			// instant event keeps the failure visible on the timeline.
			ev.Ph, ev.Dur = "i", 0
		}
		events = append(events, ev)
	}
	for _, cs := range spans {
		s := cs.span
		proc(cs.pid)
		meta(cs.pid, s.Machine+1, "machine "+strconv.Itoa(s.Machine))
		events = append(events, chromeEvent{
			Name: s.Name, Cat: string(s.Phase), Ph: "X", Pid: cs.pid, Tid: s.Machine + 1,
			Ts: us(s.Start), Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]any{
				"round":       s.Round,
				"phase":       string(s.Phase),
				"ops":         s.Ops,
				"inWords":     s.InWords,
				"outWords":    s.OutWords,
				"sends":       s.Sends,
				"fanout":      s.Fanout,
				"queueWaitUs": s.QueueWait.Microseconds(),
			},
		})
	}
	for _, in := range instants {
		proc(in.pid)
		if in.machine < 0 {
			meta(in.pid, roundsTrack, "rounds")
		} else {
			meta(in.pid, in.machine+1, "machine "+strconv.Itoa(in.machine))
		}
		events = append(events, chromeEvent{
			Name: in.name, Cat: in.cat, Ph: "i", Pid: in.pid, Tid: in.machine + 1,
			Ts: us(in.at), Args: in.args,
		})
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
	return chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// JSON renders the collected trace as a Chrome trace-event file.
func (c *Chrome) JSON() ([]byte, error) {
	return json.Marshal(c.build())
}

// WriteTo writes the trace to w (indented, since the files are meant to be
// opened and occasionally read by humans).
func (c *Chrome) WriteTo(w io.Writer) (int64, error) {
	buf, err := json.MarshalIndent(c.build(), "", " ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// Events reports how many events the trace currently holds (spans, round
// summaries, and fault/retry instants; metadata is synthesized at export
// time).
func (c *Chrome) Events() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans) + len(c.rounds) + len(c.instants)
}
