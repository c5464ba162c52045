package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// clusterTraceFile decodes the merged trace far enough to assert on lanes.
type clusterTraceFile struct {
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

func decodeClusterTrace(t *testing.T, ct *trace.ClusterTrace) clusterTraceFile {
	t.Helper()
	raw, err := ct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var file clusterTraceFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	return file
}

// processNames extracts pid -> process_name from the metadata events.
func processNames(file clusterTraceFile) map[int]string {
	names := map[int]string{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	return names
}

// TestTelemetryParity is the telemetry plane's hard invariant: the same
// jobs over TCP with no worker shipping events (nothing records, so the
// welcome asks for no telemetry) and with every worker shipping them (the
// process log keeps everything from before the session opens, as under
// -trace) must produce bit-identical deterministic results, both equal to
// the local run. After Close the process log renders one lane per party
// plus the transport lane, which ends in one peer-stats instant per
// worker and holds no peer loss.
func TestTelemetryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	prev := trace.FlightEnabled()
	defer trace.SetFlightEnabled(prev)
	defer trace.Flight().Reset()
	trace.SetFlightEnabled(false)
	trace.Flight().Reset()

	off, err := NewSession(SessionOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var resOff []core2
	for _, job := range parityJobs() {
		local, lerr := runLocal(job)
		r, rerr := off.Run(job)
		checkParity(t, job.Algo+"/telemetry-off", local, lerr, r, rerr)
		resOff = append(resOff, core2{normalize(r), errStr(rerr)})
	}
	off.Close()

	// Keep alone makes the log record, flight recorder off or not, and so
	// makes the next session's welcome ask every worker to ship.
	trace.Flight().Keep()
	on, err := NewSession(SessionOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	for i, job := range parityJobs() {
		local, lerr := runLocal(job)
		r, rerr := on.Run(job)
		checkParity(t, job.Algo+"/telemetry-on", local, lerr, r, rerr)
		if got := (core2{normalize(r), errStr(rerr)}); !reflect.DeepEqual(got, resOff[i]) {
			t.Errorf("%s: telemetry changed the deterministic result:\non:  %+v\noff: %+v",
				job.Algo, got, resOff[i])
		}
	}

	// Per-worker rows: advisory, but deterministic in the model fields —
	// every machine-round must be attributed to exactly one party.
	rep := func() (sum int) {
		res, err := on.Run(parityJobs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.Workers) != 4 {
			t.Fatalf("Workers rows = %d, want 4 (coordinator + 3 workers)", len(res.Report.Workers))
		}
		total := 0
		for _, w := range res.Report.Workers {
			total += w.MachineRounds
		}
		var machineRounds int
		for _, r := range res.Report.Rounds {
			machineRounds += r.Machines
		}
		if total != machineRounds {
			t.Errorf("per-worker MachineRounds sum to %d, want %d", total, machineRounds)
		}
		if res.Report.Workers[0].WireBytes == 0 {
			t.Error("coordinator row has no wire traffic recorded")
		}
		return total
	}
	rep()

	on.Close()
	file := decodeClusterTrace(t, trace.Flight().Trace())
	names := processNames(file)
	want := map[int]string{
		0: "coordinator (party 0)",
		1: "worker (party 1)",
		2: "worker (party 2)",
		3: "worker (party 3)",
		4: "transport",
	}
	for pid, name := range want {
		if names[pid] != name {
			t.Errorf("trace lane %d named %q, want %q (lanes: %v)", pid, names[pid], name, names)
		}
	}
	spans := map[int]int{}     // pid -> machine spans
	peerStats := map[int]int{} // transport track -> peer-stats instants
	for _, ev := range file.TraceEvents {
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("negative time in merged trace: %+v", ev)
		}
		if ev.Ph == "X" && ev.Tid > 0 && ev.Pid <= 3 {
			spans[ev.Pid]++
		}
		if ev.Pid == 4 && ev.Name == trace.TransportPeerStats {
			peerStats[ev.Tid]++
		}
		if ev.Name == trace.TransportPeerLost {
			t.Errorf("a clean session logged %+v", ev)
		}
	}
	for pid := 0; pid <= 3; pid++ {
		if spans[pid] == 0 {
			t.Errorf("party %d shipped no machine spans", pid)
		}
	}
	if want := map[int]int{1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(peerStats, want) {
		t.Errorf("peer-stats instants per worker track = %v, want one each %v", peerStats, want)
	}
}

// TestTelemetryWorkerDeath kills worker party 2 at its second exchange
// with telemetry on: the result must still be bit-identical, the events
// the worker shipped before dying must appear in its lane, and the
// recovery must be visible as a reassignment instant on the transport
// lane.
func TestTelemetryWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// edit-mpc: by exchange 2 every party still owns machines, so the death
	// forces real reassignments (ulam's later exchanges are single-machine).
	job := parityJobs()[1]
	local, lerr := runLocal(job)
	defer trace.Flight().Reset()
	trace.Flight().Reset()
	trace.Flight().Keep()
	sess, err := NewSession(SessionOptions{
		Workers:   2,
		Stderr:    io.Discard,
		WorkerEnv: []string{EnvWorkerDieSeq + "=2", EnvWorkerDieParty + "=2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	distr, derr := sess.Run(job)
	checkParity(t, "edit-mpc/telemetry-worker-kill", local, lerr, distr, derr)

	sess.Close()
	file := decodeClusterTrace(t, trace.Flight().Trace())
	deadSpans, reassigns := 0, 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 2 && ev.Tid > 0 {
			deadSpans++
		}
		if ev.Name == trace.TransportReassign && ev.Pid == 3 {
			reassigns++
		}
	}
	// The worker died entering exchange 2, so everything it executed before
	// exchange 1's barrier (its share of the first round) was already
	// shipped and must survive in its lane.
	if deadSpans == 0 {
		t.Error("dead worker's pre-death spans missing from its trace lane")
	}
	if reassigns == 0 {
		t.Error("reassignment instant missing from transport lane")
	}
}

// TestStatusEndpoint serves a live session over the -status HTTP endpoint
// and checks the snapshot schema documented in docs/DISTRIBUTED.md.
func TestStatusEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	sess, err := NewSession(SessionOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Run(parityJobs()[0]); err != nil {
		t.Fatal(err)
	}

	srv, err := StartStatus("127.0.0.1:0", func() any { return sess.Status() })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st transport.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" || st.Parties != 3 || st.Self != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.Alive != 3 || len(st.Peers) != 2 {
		t.Errorf("alive/peers = %d/%d, want 3/2 (%+v)", st.Alive, len(st.Peers), st)
	}
	if st.Seq == 0 || st.Wire.BytesOut == 0 {
		t.Errorf("status shows no completed exchanges: %+v", st)
	}
	for _, p := range st.Peers {
		if !p.Alive || p.BytesIn == 0 {
			t.Errorf("peer row %+v, want alive with traffic", p)
		}
	}

	// The -status listener serves the whole ops handler: build identity
	// and pprof ride along with the snapshot.
	for _, path := range []string{"/version", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes; want 200 with a body", path, resp.StatusCode, len(body))
		}
	}
}
