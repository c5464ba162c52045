package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpcdist/internal/trace"
)

// syntheticCluster builds the telemetry of a 4-party run (coordinator +
// 3 workers) with hand-picked clock offsets: worker clocks are skewed by
// whole milliseconds relative to the coordinator, and OffsetNs carries the
// correction, exactly as the handshake midpoint estimate would. Every
// timestamp is a fixed literal, so the merged trace is byte-stable.
func syntheticCluster() []trace.Telemetry {
	const base = int64(1_700_000_000_000_000_000) // coordinator clock
	span := func(round, machine int, start, dur int64, ops int64) trace.TeleSpan {
		return trace.TeleSpan{
			Round: round, Machine: machine, Name: "candidates", Phase: string(trace.PhaseCandidates),
			StartNs: start, EndNs: start + dur, Ops: ops, OutWords: 8, Sends: 2, Fanout: 2,
		}
	}
	rnd := func(round int, start, dur int64, machines int) trace.TeleRound {
		return trace.TeleRound{
			Round: round, Name: "candidates", Phase: string(trace.PhaseCandidates),
			Machines: machines, StartNs: start, EndNs: start + dur,
			TotalOps: 100, CommWords: 32,
		}
	}

	coord := trace.Telemetry{
		Party: 0, OffsetNs: 0,
		Spans:  []trace.TeleSpan{span(0, 0, base+1_000_000, 400_000, 10)},
		Rounds: []trace.TeleRound{rnd(0, base+900_000, 2_600_000, 4)},
		Events: []trace.TeleTransport{
			{Kind: trace.TransportHandshake, Party: -1, AtNs: base},
			{Kind: trace.TransportExchange, Party: -1, Seq: 1, Bytes: 4096, AtNs: base + 3_600_000},
			{Kind: trace.TransportPeerLost, Party: 3, Seq: 1, AtNs: base + 2_000_000},
			{Kind: trace.TransportReassign, Party: 3, Seq: 1, IDs: 1, Bytes: 2048, AtNs: base + 2_100_000},
			{Kind: trace.TransportPeerStats, Party: 1, Bytes: 9000, RTTNs: 300_000, AtNs: base + 4_000_000},
		},
	}
	// Worker 1's clock runs 5ms behind the coordinator: its raw stamps are
	// small, and OffsetNs = +5ms rebases them.
	w1 := trace.Telemetry{
		Party: 1, OffsetNs: 5_000_000,
		Spans: []trace.TeleSpan{span(0, 1, base-5_000_000+1_100_000, 500_000, 20)},
		Faults: []trace.TeleFault{{
			Round: 0, Machine: 1, Name: "candidates", Phase: string(trace.PhaseCandidates),
			Kind: "crash-after", Attempt: 1, AtNs: base - 5_000_000 + 1_300_000,
		}},
	}
	// Worker 2 runs 7ms ahead; OffsetNs is negative. Its two batches (two
	// round barriers) must merge into one lane.
	w2a := trace.Telemetry{
		Party: 2, OffsetNs: -7_000_000,
		Spans: []trace.TeleSpan{span(0, 2, base+7_000_000+1_050_000, 450_000, 30)},
	}
	w2b := trace.Telemetry{
		Party: 2, OffsetNs: -7_000_000,
		Spans: []trace.TeleSpan{span(1, 2, base+7_000_000+5_000_000, 300_000, 15)},
	}
	// Worker 3 died mid-round: only its pre-death span arrived.
	w3 := trace.Telemetry{
		Party: 3, OffsetNs: 2_000_000,
		Spans: []trace.TeleSpan{span(0, 3, base-2_000_000+1_200_000, 300_000, 5)},
	}
	return []trace.Telemetry{coord, w1, w2a, w2b, w3}
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
// rebased timestamp is non-negative, and clock skew has been corrected —
// worker spans land where the coordinator's timeline says they should.
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
			t.Errorf("party %d first span at %vus on merged timeline, want %vus (offset not applied?)", pid, got, ts)
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

// TestDrainTelemetry checks the collector-to-wire conversion: remote spans
// are skipped (their owning party ships them itself), retries are tagged,
// and draining empties the collector so successive drains ship disjoint
// batches.
func TestDrainTelemetry(t *testing.T) {
	now := time.Now()
	c := &trace.Collector{}
	c.MachineEnd(trace.MachineSpan{Round: 0, Machine: 1, Name: "r", Start: now, End: now.Add(time.Millisecond), Ops: 5})
	c.MachineEnd(trace.MachineSpan{Round: 0, Machine: 2, Name: "r", Remote: true, Ops: 7})
	c.RoundEnd(trace.RoundSummary{Round: 0, Name: "r", Machines: 2, TotalOps: 12})
	c.Fault(trace.FaultEvent{Round: 0, Machine: 1, Kind: "crash-after", At: now})
	c.Retry(trace.RetryEvent{Round: 0, Machine: 1, Kind: "crash", Attempt: 2, At: now})
	c.Transport(trace.TransportEvent{Kind: trace.TransportExchange, Party: -1, Seq: 1, Bytes: 64, At: now})

	tel, ok := c.DrainTelemetry()
	if !ok {
		t.Fatal("drain reported empty")
	}
	if len(tel.Spans) != 1 || tel.Spans[0].Machine != 1 {
		t.Errorf("spans = %+v, want only the local machine-1 span (remote skipped)", tel.Spans)
	}
	if len(tel.Rounds) != 1 || tel.Rounds[0].TotalOps != 12 {
		t.Errorf("rounds = %+v", tel.Rounds)
	}
	if len(tel.Faults) != 2 {
		t.Fatalf("faults = %+v, want fault + retry", tel.Faults)
	}
	if tel.Faults[0].Retry || !tel.Faults[1].Retry {
		t.Errorf("retry tagging wrong: %+v", tel.Faults)
	}
	if len(tel.Events) != 1 || tel.Events[0].Kind != trace.TransportExchange {
		t.Errorf("events = %+v", tel.Events)
	}
	if _, ok := c.DrainTelemetry(); ok {
		t.Error("second drain not empty")
	}
}

func TestMergeTelemetry(t *testing.T) {
	got := trace.MergeTelemetry([]trace.Telemetry{
		{Party: 2, OffsetNs: 9, Spans: []trace.TeleSpan{{Round: 0}}},
		{Party: 1, OffsetNs: 4, Rounds: []trace.TeleRound{{Round: 0}}},
		{Party: 2, OffsetNs: 9, Spans: []trace.TeleSpan{{Round: 1}}},
	})
	if len(got) != 2 || got[0].Party != 1 || got[1].Party != 2 {
		t.Fatalf("merged = %+v, want parties [1 2]", got)
	}
	if len(got[1].Spans) != 2 || got[1].Spans[0].Round != 0 || got[1].Spans[1].Round != 1 {
		t.Errorf("party 2 batches not merged in order: %+v", got[1].Spans)
	}
	if got[1].OffsetNs != 9 {
		t.Errorf("OffsetNs = %d, want 9", got[1].OffsetNs)
	}
}
