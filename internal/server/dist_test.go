package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcdist"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/transport"
)

// fakeDist is a canned DistRunner: it returns a fixed result with
// per-worker rows and records the jobs the server routed to it.
type fakeDist struct {
	mu   sync.Mutex
	jobs []dist.Job
	res  mpcdist.MPCResult
}

func (f *fakeDist) RunSaved(job dist.Job, _ *checkpoint.Saver) (mpcdist.MPCResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs = append(f.jobs, job)
	return f.res, nil
}

// routed returns the jobs routed so far.
func (f *fakeDist) routed() []dist.Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]dist.Job(nil), f.jobs...)
}

func (f *fakeDist) calls() int { return len(f.routed()) }

func (f *fakeDist) Status() transport.Status {
	return transport.Status{
		Role:    "coordinator",
		Parties: 4,
		Self:    0,
		Seq:     17,
		Alive:   4,
		Wire:    transport.Stats{BytesOut: 4096, BytesIn: 2048, Frames: 12, Exchanges: 5, Reconnects: 2, CorruptFrames: 7},
		Peers: []transport.PeerStatus{
			{Party: 1, Alive: true, BytesIn: 700, BytesOut: 1400, Frames: 4, RTTP99Ms: 0.25, Reconnects: 2, CorruptFrames: 7},
			{Party: 2, Alive: true, BytesIn: 650, BytesOut: 1300, Frames: 4, RTTP99Ms: 0.5},
			{Party: 3, Alive: false, BytesIn: 600, BytesOut: 1200, Frames: 4},
		},
	}
}

func newFakeDist() *fakeDist {
	return &fakeDist{res: mpcdist.MPCResult{
		Value: 4,
		Report: mpc.Report{
			NumRounds:   3,
			MaxMachines: 8,
			MaxWords:    64,
			TotalOps:    1000,
			CriticalOps: 400,
			CommWords:   256,
			Workers: []mpc.WorkerStats{
				{Party: 0, MachineRounds: 6, Ops: 300, CommWords: 96, QueueWait: 2 * time.Millisecond},
				{Party: 1, MachineRounds: 5, Ops: 250, CommWords: 80, WireBytes: 2100},
				{Party: 2, MachineRounds: 5, Ops: 250, CommWords: 80, WireBytes: 1950, Retries: 1},
				{Party: 3, MachineRounds: 4, Ops: 200, CommWords: 0, WireBytes: 1800},
			},
		},
	}}
}

func TestDistributedRouting(t *testing.T) {
	fake := newFakeDist()
	ts := newTestServer(t, Config{Dist: fake})

	a := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "ulam-mpc", ASeq: []int{1, 2, 3, 4}, BSeq: []int{4, 3, 2, 1}}))
	if !a.Distributed {
		t.Fatal("cluster-routed answer not marked distributed")
	}
	if a.Distance != 4 {
		t.Fatalf("distance = %d, want the cluster's 4", a.Distance)
	}
	if got := fake.calls(); got != 1 {
		t.Fatalf("DistRunner.RunSaved called %d times, want 1", got)
	}
	if a.Report == nil || len(a.Report.Workers) != 4 {
		t.Fatalf("answer report workers = %+v, want 4 rows", a.Report)
	}
	w2 := a.Report.Workers[2]
	if w2.Party != 2 || w2.WireBytes != 1950 || w2.Retries != 1 {
		t.Fatalf("worker row 2 = %+v, want party 2 wireBytes 1950 retries 1", w2)
	}

	// Every MPC algorithm routes alike: the query name is the job name.
	l := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "lcs-mpc", A: "kitten", B: "sitting"}))
	if !l.Distributed || fake.calls() != 2 {
		t.Fatalf("lcs-mpc query not routed to the cluster (distributed=%v calls=%d)",
			l.Distributed, fake.calls())
	}
	if job := fake.routed()[1]; job.Algo != dist.AlgoLCSMPC || string(job.S) != "kitten" || string(job.T) != "sitting" {
		t.Fatalf("lcs-mpc job = %+v", job)
	}

	// Sequential algorithms never touch the cluster.
	b := decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "edit", A: "kitten", B: "sitting"}))
	if b.Distributed || fake.calls() != 2 {
		t.Fatalf("sequential query routed to the cluster (distributed=%v calls=%d)",
			b.Distributed, fake.calls())
	}

	// Trace queries need the in-process observer, so they bypass the
	// cluster too and still return a trace.
	c := decodeAnswer(t, post(t, ts.URL+"/v1/distance?trace=1",
		Query{Algo: "ulam-mpc", ASeq: []int{3, 1, 2}, BSeq: []int{1, 2, 3}}))
	if c.Distributed || fake.calls() != 2 {
		t.Fatalf("trace query routed to the cluster (distributed=%v calls=%d)",
			c.Distributed, fake.calls())
	}
	if len(c.Trace) == 0 {
		t.Fatal("trace query returned no trace")
	}
}

func TestDistributedMetrics(t *testing.T) {
	fake := newFakeDist()
	ts := newTestServer(t, Config{Dist: fake})

	decodeAnswer(t, post(t, ts.URL+"/v1/distance",
		Query{Algo: "ulam-mpc", ASeq: []int{1, 2, 3, 4}, BSeq: []int{4, 3, 2, 1}}))

	snap := metricsSnapshot(t, ts.URL)
	if snap.Transport == nil {
		t.Fatal("snapshot missing transport section")
	}
	if snap.Transport.Workers != 3 || snap.Transport.Alive != 4 {
		t.Fatalf("transport = %+v, want 3 workers / 4 alive", snap.Transport)
	}
	if snap.Transport.Wire.BytesOut != 4096 || len(snap.Transport.Peers) != 3 {
		t.Fatalf("transport wire/peers = %+v", snap.Transport)
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("snapshot workers = %+v, want 4 parties", snap.Workers)
	}
	if wa := snap.Workers[1]; wa == nil || wa.MachineRounds != 5 || wa.WireBytes != 2100 {
		t.Fatalf("worker 1 aggregate = %+v", snap.Workers[1])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"mpcserve_transport_workers 3",
		"mpcserve_transport_alive 4",
		"mpcserve_transport_bytes_out_total 4096",
		`mpcserve_transport_peer_alive{party="3"} 0`,
		`mpcserve_transport_peer_rtt_p99_seconds{party="2"} 0.0005`,
		"mpcserve_transport_reconnects_total 2",
		"mpcserve_transport_corrupt_frames_total 7",
		`mpcserve_transport_peer_reconnects_total{party="1"} 2`,
		`mpcserve_transport_peer_corrupt_frames_total{party="1"} 7`,
		`mpcserve_worker_machine_rounds_total{party="0"} 6`,
		`mpcserve_worker_wire_bytes_total{party="2"} 1950`,
		`mpcserve_worker_retries_total{party="2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Local servers expose neither section.
	ts2 := newTestServer(t, Config{})
	snap2 := metricsSnapshot(t, ts2.URL)
	if snap2.Transport != nil || snap2.Workers != nil {
		t.Fatalf("local server snapshot has cluster sections: %+v %+v", snap2.Transport, snap2.Workers)
	}
}
