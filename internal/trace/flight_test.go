package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// endRound feeds one completed round with the given elapsed time.
func endRound(l *Log, i int, elapsed time.Duration) {
	start := time.Unix(1, 0)
	l.RoundStart(RoundInfo{Round: i, Name: fmt.Sprintf("r%d", i), Phase: PhaseCandidates, Machines: 2})
	l.RoundEnd(RoundSummary{
		Round: i, Name: fmt.Sprintf("r%d", i), Phase: PhaseCandidates, Machines: 2,
		Start: start, End: start.Add(elapsed), Elapsed: elapsed,
		TotalOps: int64(i), CommWords: 1,
	})
}

// retained reports how many events l holds.
func retained(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TestLogBudget pins the always-on log's memory: a full ring costs no more
// than the span and round rings it replaced (4096 × 120 B + 256 × 128 B).
func TestLogBudget(t *testing.T) {
	if got := LogCapacity * int(unsafe.Sizeof(Event{})); got > 524_288 {
		t.Errorf("LogCapacity × sizeof(Event) = %d × %d = %d B, budget 524288 B",
			LogCapacity, unsafe.Sizeof(Event{}), got)
	}
}

// TestLogRingRules is the table of the ring's overwrite rules.
func TestLogRingRules(t *testing.T) {
	const over = LogCapacity + 100
	for _, tc := range []struct {
		name string
		prep func(*Log)
		// drainAt drains after this many rounds (0 = never).
		drainAt  int
		wantKept int
		// wantOldest is the oldest retained round.
		wantOldest int
	}{
		{"undrained bounded log overwrites its oldest", func(*Log) {}, 0, LogCapacity, over - LogCapacity},
		{"drained log never loses an undrained event", func(l *Log) { l.Drain() }, 0, over, 0},
		{"drained log overwrites only drained events", func(l *Log) { l.Drain() }, 50, over - 50, 50},
		{"unbounded log keeps everything", func(l *Log) { l.Keep() }, 0, over, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog()
			tc.prep(l)
			for i := 0; i < over; i++ {
				l.RoundEnd(RoundSummary{Round: i})
				if i+1 == tc.drainAt {
					l.Drain()
				}
			}
			if got := retained(l); got != tc.wantKept {
				t.Errorf("retained %d events, want %d", got, tc.wantKept)
			}
			if got := l.events()[0].Round; int(got) != tc.wantOldest {
				t.Errorf("oldest retained round %d, want %d", got, tc.wantOldest)
			}
		})
	}
}

// TestLogDrainedEveryBarrierStaysBounded is the regression test for the
// worker telemetry leak: a worker's log, drained at every round barrier
// over many times its capacity in rounds, ships every event exactly once
// and never holds more than its capacity.
func TestLogDrainedEveryBarrierStaysBounded(t *testing.T) {
	l := NewLog()
	l.SetParty(2)
	l.Drain()
	shipped := 0
	for r := 0; r < 10*LogCapacity; r++ {
		l.RoundStart(RoundInfo{Round: r})
		l.MachineEnd(MachineSpan{Round: r, Machine: 0})
		l.MachineEnd(MachineSpan{Round: r, Machine: 1, Remote: true})
		l.RoundEnd(RoundSummary{Round: r})
		shipped += len(l.Drain())
		if n := retained(l); n > LogCapacity {
			t.Fatalf("round %d: log holds %d events, capacity %d", r, n, LogCapacity)
		}
		l.mu.Lock()
		size := len(l.buf)
		l.mu.Unlock()
		if size > LogCapacity {
			t.Fatalf("round %d: ring grew to %d slots, capacity %d", r, size, LogCapacity)
		}
	}
	if want := 2 * 10 * LogCapacity; shipped != want {
		t.Errorf("shipped %d events, want %d (one span and one round per round)", shipped, want)
	}
}

func TestFlightRingOverwritesOldest(t *testing.T) {
	l := NewLog()
	total := LogCapacity + 10
	for i := 0; i < total; i++ {
		endRound(l, i, time.Millisecond)
	}
	st := l.Stats()
	if st.Rounds != LogCapacity {
		t.Fatalf("retained rounds = %d, want cap %d", st.Rounds, LogCapacity)
	}
	if st.Events != uint64(total) {
		t.Errorf("events = %d, want %d", st.Events, total)
	}
	rounds := l.events()
	if len(rounds) != LogCapacity {
		t.Fatalf("retained events = %d, want %d", len(rounds), LogCapacity)
	}
	// Oldest-first, and the oldest retained is the (total-cap)-th round.
	if int(rounds[0].Round) != total-LogCapacity {
		t.Errorf("oldest retained round = %d, want %d", rounds[0].Round, total-LogCapacity)
	}
	if last := rounds[len(rounds)-1].Round; int(last) != total-1 {
		t.Errorf("newest retained round = %d, want %d", last, total-1)
	}
}

func TestFlightQuantiles(t *testing.T) {
	l := NewLog()
	if q := l.Stats().Latency; q.Window != 0 || q.P99Ms != 0 {
		t.Fatalf("empty quantiles = %+v", q)
	}
	// 100 rounds at 1..100ms: nearest-rank p50=50ms, p95=95ms, p99=99ms.
	for i := 1; i <= 100; i++ {
		endRound(l, i, time.Duration(i)*time.Millisecond)
	}
	q := l.Stats().Latency
	if q.Window != 100 || q.P50Ms != 50 || q.P95Ms != 95 || q.P99Ms != 99 {
		t.Errorf("quantiles = %+v, want window=100 p50=50 p95=95 p99=99", q)
	}
	// The window is rolling: flood it with 1ms rounds and the old tail
	// must stop influencing the quantiles.
	for i := 0; i < latencyWindow; i++ {
		endRound(l, 1000+i, time.Millisecond)
	}
	if q := l.Stats().Latency; q.P99Ms != 1 || q.Window != latencyWindow {
		t.Errorf("after flooding window, quantiles = %+v, want p99 1ms over %d rounds", q, latencyWindow)
	}
}

func TestFlightIngestGroupsByParty(t *testing.T) {
	l := NewLog()
	endRound(l, 0, time.Millisecond)
	// The batch names party 5, but it arrived from party 2: the ingest
	// stamps the party, and keeps the times as shipped (already rebased).
	l.Ingest(2, []Event{
		{Kind: KindRound, Party: 5, Round: 0, Name: "r0", Phase: PhaseCandidates, StartNs: 5, EndNs: 9},
		{Kind: KindSpan, Round: 0, Machine: 1, Name: "r0", Phase: PhaseCandidates, StartNs: 5, EndNs: 8},
	})
	evs := l.events()
	if len(evs) != 3 || evs[0].Party != 0 || evs[1].Party != 2 || evs[2].Party != 2 {
		t.Fatalf("logged %+v, want the local round, then party 2's round and span", evs)
	}
	if e := evs[1]; e.StartNs != 5 || e.EndNs != 9 {
		t.Errorf("party 2 round at [%d, %d], want [5, 9] as shipped", e.StartNs, e.EndNs)
	}
	lanes := map[int]int{}
	for _, ev := range decodeDump(t, l.Trace()).TraceEvents {
		if ev.Ph != "M" {
			lanes[ev.Pid]++
		}
	}
	if lanes[0] != 1 || lanes[2] != 2 || len(lanes) != 2 {
		t.Errorf("trace events per lane = %v, want 1 on lane 0 and 2 on lane 2", lanes)
	}
	if st := l.Stats(); st.Parties != 2 {
		t.Errorf("stats parties = %d, want 2", st.Parties)
	}
	// Remote round latencies must not enter the local quantile window.
	if q := l.Stats().Latency; q.Window != 1 {
		t.Errorf("quantile window = %d, want 1 (local rounds only)", q.Window)
	}
}

// chromeDump decodes a dump the way tracecheck reads it.
type chromeDump struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeDump(t *testing.T, ct *ClusterTrace) chromeDump {
	t.Helper()
	buf, err := ct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var d chromeDump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFlightDumpValidChromeTrace(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		endRound(l, i, time.Millisecond)
	}
	l.Transport(TransportEvent{Kind: TransportExchange, Party: 1, Seq: 3, Bytes: 100, At: time.Unix(2, 0)})
	l.Checkpoint(CheckpointEvent{Round: 4, Name: "r4", Kind: CheckpointSave, Step: 4, At: time.Unix(2, 0)})
	l.Ingest(1, []Event{{Kind: KindRound, Round: 4, Name: "r4", Phase: PhaseCandidates, StartNs: 5, EndNs: 9}})
	// A round started but not ended: the dump must render it as an
	// instant, never as a negative-duration span.
	l.RoundStart(RoundInfo{Round: 5, Name: "open", Phase: PhaseGraph, Machines: 1})

	d := decodeDump(t, l.Dump())
	if len(d.TraceEvents) == 0 {
		t.Fatal("empty dump")
	}
	named := map[int]bool{}
	var sawQuantiles, sawOpen, sawCheckpoint bool
	for _, ev := range d.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			named[ev.Pid] = true
		}
	}
	for _, ev := range d.TraceEvents {
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q: negative ts/dur (%v, %v)", ev.Name, ev.Ts, ev.Dur)
		}
		if !named[ev.Pid] {
			t.Errorf("event %q on unnamed process lane %d", ev.Name, ev.Pid)
		}
		switch {
		case ev.Name == "round-latency":
			sawQuantiles = true
			if ev.Args["window"] == nil || ev.Args["p99Ms"] == nil {
				t.Errorf("round-latency args = %v, want window/p50Ms/p95Ms/p99Ms", ev.Args)
			}
		case ev.Name == "open" && ev.Ph == "i":
			sawOpen = true
		case ev.Name == "checkpoint" && ev.Pid == 0 && ev.Tid == 0:
			sawCheckpoint = ev.Args["step"] == 4.0 && ev.Args["kind"] == CheckpointSave
		}
	}
	if !sawQuantiles {
		t.Error("dump missing the flight-recorder round-latency quantile event")
	}
	if !sawOpen {
		t.Error("dump missing the open round as an instant event")
	}
	if !sawCheckpoint {
		t.Error("dump missing the checkpoint instant on the rounds track")
	}
}

func TestFlightTriggerDebounce(t *testing.T) {
	l := NewLog()
	var mu sync.Mutex
	var reasons []string
	l.SetAutoDump(func(reason string) {
		mu.Lock()
		reasons = append(reasons, reason)
		mu.Unlock()
	})
	l.Trigger("first")
	l.Trigger("storm-1")
	l.Trigger("storm-2")
	mu.Lock()
	got := append([]string(nil), reasons...)
	mu.Unlock()
	if len(got) != 1 || got[0] != "first" {
		t.Errorf("debounced triggers = %v, want [first]", got)
	}
	// A peer loss is an automatic trigger (debounced with the others).
	l2 := NewLog()
	var n int
	l2.SetAutoDump(func(string) { n++ })
	l2.Transport(TransportEvent{Kind: TransportPeerLost, Party: 1, At: time.Unix(3, 0)})
	if n != 1 {
		t.Errorf("peer-lost triggered %d dumps, want 1", n)
	}
	// Disarmed log: Trigger is a no-op, not a panic.
	NewLog().Trigger("nobody listening")
}

func TestFlightReset(t *testing.T) {
	l := NewLog()
	endRound(l, 0, time.Millisecond)
	l.Ingest(1, []Event{{Kind: KindSpan, StartNs: 1, EndNs: 2}})
	l.Keep()
	l.Reset()
	st := l.Stats()
	if st.Events != 0 || st.Rounds != 0 || st.Spans != 0 || st.Parties != 1 {
		t.Errorf("after reset: %+v", st)
	}
	if q := l.Stats().Latency; q.Window != 0 {
		t.Errorf("after reset, quantile window = %d", q.Window)
	}
	if l.requested() {
		t.Error("after reset, the log still keeps every event")
	}
}

func TestFlightRemoteSpansSkipped(t *testing.T) {
	l := NewLog()
	l.MachineEnd(MachineSpan{Round: 0, Machine: 1, Remote: true, Start: time.Unix(1, 0), End: time.Unix(2, 0)})
	if st := l.Stats(); st.Spans != 0 {
		t.Errorf("remote span retained: %+v", st)
	}
	l.MachineEnd(MachineSpan{Round: 0, Machine: 1, Start: time.Unix(1, 0), End: time.Unix(2, 0)})
	if st := l.Stats(); st.Spans != 1 {
		t.Errorf("local span not retained: %+v", st)
	}
}

func TestWithFlight(t *testing.T) {
	prev := FlightEnabled()
	defer SetFlightEnabled(prev)
	defer Flight().Reset()
	Flight().Reset()

	SetFlightEnabled(true)
	if got := WithFlight(nil); got != Observer(Flight()) {
		t.Errorf("WithFlight(nil) = %T, want the process log", got)
	}
	base := Base{}
	if _, ok := WithFlight(base).(multi); !ok {
		t.Errorf("WithFlight(obs) = %T, want a Multi composition", WithFlight(base))
	}

	SetFlightEnabled(false)
	if got := WithFlight(nil); got != nil {
		t.Errorf("disabled WithFlight(nil) = %T, want nil", got)
	}
	if got := WithFlight(base); got != Observer(base) {
		t.Errorf("disabled WithFlight(obs) = %T, want obs unchanged", got)
	}
	// The gated helpers are no-ops while disabled.
	before := Flight().Stats().Events
	FlightTransport(TransportEvent{Kind: TransportExchange, At: time.Unix(1, 0)})
	FlightIngest(9, []Event{{Kind: KindSpan}})
	if after := Flight().Stats().Events; after != before {
		t.Errorf("disabled helpers logged %d events", after-before)
	}
	// A requested trace makes the log record with the recorder off.
	Flight().Keep()
	if !Recording() || WithFlight(nil) != Observer(Flight()) {
		t.Error("a kept process log does not record with the flight recorder off")
	}
	FlightTransport(TransportEvent{Kind: TransportExchange, At: time.Unix(1, 0)})
	if after := Flight().Stats().Events; after != before+1 {
		t.Errorf("kept log logged %d transport events, want 1", after-before)
	}
}

func TestFlightEnvOff(t *testing.T) {
	for v, want := range map[string]bool{
		"off": true, "0": true, "false": true, "NO": true, " Disabled ": true,
		"": false, "on": false, "1": false, "anything": false,
	} {
		if got := flightEnvOff(v); got != want {
			t.Errorf("flightEnvOff(%q) = %v, want %v", v, got, want)
		}
	}
}

// TestFlightConcurrency hammers every entry point at once; run under
// -race this is the log's thread-safety proof.
func TestFlightConcurrency(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 6 {
				case 0:
					endRound(l, i, time.Millisecond)
				case 1:
					l.MachineEnd(MachineSpan{Round: i, Machine: g, Start: time.Unix(1, 0), End: time.Unix(2, 0)})
				case 2:
					l.Fault(FaultEvent{Round: i, Machine: g, At: time.Unix(1, 0)})
				case 3:
					l.Ingest(g+1, []Event{{Kind: KindSpan, Round: int32(i), StartNs: 1, EndNs: 2}})
				case 4:
					l.Transport(TransportEvent{Kind: TransportExchange, Seq: i, At: time.Unix(1, 0)})
				case 5:
					l.Drain()
				}
				if i%50 == 0 {
					_ = l.Stats()
					_ = l.Stats().Latency
				}
			}
		}(g)
	}
	var wgDump sync.WaitGroup
	wgDump.Add(1)
	go func() {
		defer wgDump.Done()
		for i := 0; i < 10; i++ {
			_ = l.Dump()
		}
	}()
	wg.Wait()
	wgDump.Wait()
	if st := l.Stats(); st.Events == 0 {
		t.Error("no events logged")
	}
}
