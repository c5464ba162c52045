package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"mpcdist/internal/trace"
)

// syntheticCluster builds the event log of a 4-party run (coordinator +
// 3 workers) with hand-picked clock offsets: worker clocks are skewed by
// whole milliseconds relative to the coordinator, and each worker's
// events arrive rebased by its offset and stamped with its party, as a
// worker's flush and the coordinator's ingest leave them. Every timestamp
// is a fixed literal, so the trace is byte-stable.
func syntheticCluster() []trace.Event {
	const base = int64(1_700_000_000_000_000_000) // coordinator clock
	span := func(round, machine int, start, dur int64, ops int64) trace.Event {
		return trace.Event{
			Kind: trace.KindSpan, Round: int32(round), Machine: int32(machine), Name: "candidates",
			Phase: trace.PhaseCandidates, StartNs: start, EndNs: start + dur, Ops: ops,
			OutWords: 8, Sends: 2, Fanout: 2,
		}
	}
	transport := func(kind string, peer, seq, machines int, bytes, at int64) trace.Event {
		return trace.Event{Kind: trace.KindTransport, Detail: kind, Peer: int32(peer), Seq: int32(seq),
			Machines: int32(machines), Words: bytes, StartNs: at}
	}
	// rebased stamps a party's events as the coordinator logs them: its
	// party, and every nonzero time moved onto the coordinator's clock.
	rebased := func(party int32, offsetNs int64, events ...trace.Event) []trace.Event {
		for i := range events {
			events[i].Party = party
			if events[i].StartNs != 0 {
				events[i].StartNs += offsetNs
			}
			if events[i].EndNs != 0 {
				events[i].EndNs += offsetNs
			}
		}
		return events
	}

	coord := []trace.Event{
		span(0, 0, base+1_000_000, 400_000, 10),
		{Kind: trace.KindRound, Round: 0, Name: "candidates", Phase: trace.PhaseCandidates,
			Machines: 4, StartNs: base + 900_000, EndNs: base + 3_500_000, Ops: 100, Words: 32},
		transport(trace.TransportHandshake, -1, 0, 0, 0, base),
		transport(trace.TransportExchange, -1, 1, 0, 4096, base+3_600_000),
		transport(trace.TransportPeerLost, 3, 1, 0, 0, base+2_000_000),
		transport(trace.TransportReassign, 3, 1, 1, 2048, base+2_100_000),
	}
	// The session's closing peer-stats instant carries the RTT p99.
	stats := transport(trace.TransportPeerStats, 1, 0, 0, 9000, base+4_000_000)
	stats.QueueNs = 300_000
	coord = append(coord, stats)
	// Worker 1's clock runs 5ms behind the coordinator: its raw stamps are
	// small, and its offset of +5ms rebases them.
	w1 := rebased(1, 5_000_000,
		span(0, 1, base-5_000_000+1_100_000, 500_000, 20),
		trace.Event{Kind: trace.KindFault, Round: 0, Machine: 1, Name: "candidates", Phase: trace.PhaseCandidates,
			Detail: "crash-after", Seq: 1, StartNs: base - 5_000_000 + 1_300_000})
	// Worker 2 runs 7ms ahead, so its offset is negative. Its two batches
	// (two round barriers) must render on one lane.
	w2a := rebased(2, -7_000_000, span(0, 2, base+7_000_000+1_050_000, 450_000, 30))
	w2b := rebased(2, -7_000_000, span(1, 2, base+7_000_000+5_000_000, 300_000, 15))
	// Worker 3 died mid-round: only its pre-death span arrived.
	w3 := rebased(3, 2_000_000, span(0, 3, base-2_000_000+1_200_000, 300_000, 5))
	return slices.Concat(coord, w1, w2a, w2b, w3)
}

func TestClusterTraceGolden(t *testing.T) {
	ct := trace.BuildClusterTrace(syntheticCluster())
	raw, err := ct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", " "); err != nil {
		t.Fatal(err)
	}
	got := append(buf.Bytes(), '\n')

	golden := filepath.Join("testdata", "cluster_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace/ -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged cluster trace differs from golden (run with -update to regenerate)\ngot:\n%s", got)
	}
}

// TestClusterTraceStructure checks the invariants tracecheck relies on:
// every party gets a named process lane, the transport lane exists, every
// timestamp is non-negative, and the rebased worker spans land where the
// coordinator's timeline says they should.
func TestClusterTraceStructure(t *testing.T) {
	ct := trace.BuildClusterTrace(syntheticCluster())
	raw, err := ct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
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
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}

	procNames := map[int]string{}
	spanTs := map[int]float64{} // pid -> first machine-span Ts
	for _, ev := range file.TraceEvents {
		if ev.Ts < 0 {
			t.Errorf("negative timestamp: %+v", ev)
		}
		if ev.Dur < 0 {
			t.Errorf("negative duration: %+v", ev)
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Pid], _ = ev.Args["name"].(string)
		}
		if ev.Ph == "X" && ev.Tid > 0 {
			if _, ok := spanTs[ev.Pid]; !ok {
				spanTs[ev.Pid] = ev.Ts
			}
		}
	}
	want := map[int]string{
		0: "coordinator (party 0)",
		1: "worker (party 1)",
		2: "worker (party 2)",
		3: "worker (party 3)",
		4: "transport",
	}
	for pid, name := range want {
		if procNames[pid] != name {
			t.Errorf("process %d named %q, want %q", pid, procNames[pid], name)
		}
	}
	// Epoch is the handshake (base); on the rebased timeline the machine
	// spans start at base+1.0ms, +1.1ms, +1.05ms, +1.2ms regardless of each
	// worker's skewed local clock.
	wantTs := map[int]float64{0: 1000, 1: 1100, 2: 1050, 3: 1200}
	for pid, ts := range wantTs {
		if got := spanTs[pid]; got != ts {
			t.Errorf("party %d first span at %vus on the trace's timeline, want %vus", pid, got, ts)
		}
	}
	// The dead worker's reassignment instant must be on the transport lane,
	// on peer 3's track.
	foundReassign := false
	for _, ev := range file.TraceEvents {
		if ev.Name == trace.TransportReassign && ev.Pid == 4 && ev.Tid == 3 {
			foundReassign = true
		}
	}
	if !foundReassign {
		t.Error("reassignment instant missing from transport lane")
	}
}

// TestDrainTelemetry checks the log-to-wire path of a worker: remote
// spans are skipped (their owning party ships them itself), retries are
// tagged, and successive drains ship disjoint batches.
func TestDrainTelemetry(t *testing.T) {
	now := time.Now()
	l := trace.NewLog()
	l.MachineEnd(trace.MachineSpan{Round: 0, Machine: 1, Name: "r", Start: now, End: now.Add(time.Millisecond), Ops: 5})
	l.MachineEnd(trace.MachineSpan{Round: 0, Machine: 2, Name: "r", Remote: true, Ops: 7})
	l.RoundEnd(trace.RoundSummary{Round: 0, Name: "r", Machines: 2, TotalOps: 12})
	l.Fault(trace.FaultEvent{Round: 0, Machine: 1, Kind: "crash-after", At: now})
	l.Retry(trace.RetryEvent{Round: 0, Machine: 1, Kind: "crash", Attempt: 2, At: now})
	l.Transport(trace.TransportEvent{Kind: trace.TransportExchange, Party: -1, Seq: 1, Bytes: 64, At: now})

	events := l.Drain()
	if len(events) == 0 {
		t.Fatal("drain returned nothing")
	}
	var kinds []trace.EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []trace.EventKind{trace.KindSpan, trace.KindRound, trace.KindFault, trace.KindRetry, trace.KindTransport}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("drained kinds %v, want %v (remote span skipped)", kinds, want)
	}
	if e := events[0]; e.Machine != 1 || e.Ops != 5 {
		t.Errorf("span = %+v, want the local machine-1 span", e)
	}
	if e := events[1]; e.Ops != 12 {
		t.Errorf("round = %+v", e)
	}
	if e := events[3]; e.Seq != 2 || e.Detail != "crash" {
		t.Errorf("retry = %+v, want attempt 2 of kind crash", e)
	}
	if e := events[4]; e.Detail != trace.TransportExchange || e.Words != 64 {
		t.Errorf("transport = %+v", e)
	}
	if events := l.Drain(); len(events) != 0 {
		t.Errorf("second drain = %+v, want nothing", events)
	}
	l.RoundEnd(trace.RoundSummary{Round: 1})
	if events := l.Drain(); len(events) != 1 || events[0].Round != 1 {
		t.Errorf("third drain = %+v, want only round 1", events)
	}
}
