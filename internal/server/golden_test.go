package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcdist/internal/transport"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshots are fixed snapshots whose two renderings — the
// Prometheus exposition and the ?format=json body — are pinned under
// testdata/. "full" fills every section: two MPC algorithms with phases, a
// sequential one whose label needs escaping, a latency histogram with
// overflow, transport with two peers, worker rows and a checkpoint
// section. "sparse" has transport without peers and nothing optional
// besides; "empty" is a registry nothing was recorded in.
func goldenSnapshots() map[string]Snapshot {
	hist := func(buckets ...uint64) *Histogram {
		h := &Histogram{Buckets: make([]uint64, len(latencyBuckets)+1)}
		copy(h.Buckets, buckets)
		for _, n := range buckets {
			h.Count += n
		}
		h.SumMs = 1234.5625
		h.MaxMs = 7250.25
		return h
	}
	return map[string]Snapshot{
		"full": {
			UptimeSeconds:  3725.125,
			Requests:       41,
			Errors:         2,
			Panics:         1,
			BadInput:       3,
			Timeouts:       4,
			Batches:        5,
			Degraded:       6,
			Shed:           7,
			LatencyBuckets: latencyBuckets,
			Algorithms: map[string]*AlgoStats{
				"edit-mpc": {
					Requests: 20, CacheHits: 8, Errors: 1,
					Latency: hist(0, 1, 2, 3, 4, 0, 0, 5, 1, 2, 2),
					MPCRuns: 11, MaxRounds: 9, MaxMachines: 120, MaxWords: 4096,
					TotalOps: 123456789, TotalComm: 98765, TotalCritical: 4321,
					TotalFailures: 3, TotalRetries: 2,
					Phases: map[string]*PhaseAgg{
						"candidates": {Rounds: 22, MaxMachines: 120, MaxWords: 4096, TotalOps: 100000000, TotalComm: 90000, TotalCritical: 4000},
						"graph":      {Rounds: 11, MaxMachines: 30, MaxWords: 512, TotalOps: 20000000, TotalComm: 8000, TotalCritical: 300},
						"chain":      {Rounds: 11, MaxMachines: 1, MaxWords: 2048, TotalOps: 3456789, TotalComm: 765, TotalCritical: 21},
					},
				},
				"ulam-mpc": {
					Requests: 10,
					Latency:  hist(1, 2, 3, 4),
					MPCRuns:  10, MaxRounds: 2, MaxMachines: 17, MaxWords: 300,
					TotalOps: 5000, TotalComm: 700, TotalCritical: 90,
					Phases: map[string]*PhaseAgg{
						"candidates": {Rounds: 10, MaxMachines: 17, MaxWords: 300, TotalOps: 4500, TotalComm: 600, TotalCritical: 80},
						"chain":      {Rounds: 10, MaxMachines: 1, MaxWords: 120, TotalOps: 500, TotalComm: 100, TotalCritical: 10},
					},
				},
				"we\"ird\\algo\n<&>": {
					Requests: 4, CacheHits: 1, Errors: 1,
					Latency: hist(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4),
				},
			},
			Cache: CacheStats{Capacity: 4096, Size: 12, Hits: 9, Misses: 30, Evictions: 1},
			Pool:  PoolStats{Size: 2, Running: 1, Waiting: 3, Completed: 28, Shed: 2},
			Workers: map[int]*WorkerAgg{
				2: {MachineRounds: 40, Ops: 600000, CommWords: 7000, QueueWaitMs: 12.75, Failures: 1, Retries: 1, WireBytes: 123456},
				0: {MachineRounds: 3, Ops: 900, CommWords: 50, QueueWaitMs: 0},
				1: {MachineRounds: 41, Ops: 610000, CommWords: 7100, QueueWaitMs: 0.125, WireBytes: 120000},
			},
			Transport: &TransportJSON{
				Workers: 2,
				Alive:   2,
				Wire: transport.Stats{BytesOut: 1 << 20, BytesIn: 3 << 19, Frames: 480, Exchanges: 120,
					PeersLost: 1, Reassigns: 2, Reconnects: 3, CorruptFrames: 4},
				Peers: []transport.PeerStatus{
					{Party: 2, Alive: false, BytesIn: 1000, BytesOut: 2000, Frames: 30, RTTP99Ms: 0, LastHeardMs: -1, Reconnects: 2, CorruptFrames: 1},
					{Party: 1, Alive: true, BytesIn: 500000, BytesOut: 600000, Frames: 450, RTTP99Ms: 1.5, LastHeardMs: 20.25, Reconnects: 1, CorruptFrames: 3},
				},
			},
			Checkpoint: &CheckpointSnap{Saves: 18, ResumedSteps: 6, BytesWritten: 65536, StoreBlobs: 24, StoreBytes: 98304},
		},
		"sparse": {
			UptimeSeconds:  0.5,
			Requests:       1,
			LatencyBuckets: latencyBuckets,
			Algorithms: map[string]*AlgoStats{
				"edit": {Requests: 1, Latency: hist(1)},
			},
			Cache:     CacheStats{Capacity: 4096, Misses: 1},
			Pool:      PoolStats{Size: 1, Completed: 1},
			Transport: &TransportJSON{Workers: 1, Alive: 1, Peers: []transport.PeerStatus{}},
		},
		"empty": {
			LatencyBuckets: latencyBuckets,
			Algorithms:     map[string]*AlgoStats{},
			Pool:           PoolStats{Size: 1},
		},
	}
}

// TestMetricsGolden pins both renderings of the golden snapshots byte for
// byte. Regenerate with `go test ./internal/server -run TestMetricsGolden
// -update` only when a change to the output is intended.
func TestMetricsGolden(t *testing.T) {
	for name, snap := range goldenSnapshots() {
		var prom bytes.Buffer
		if err := writePrometheus(&prom, snap); err != nil {
			t.Fatalf("%s: writePrometheus: %v", name, err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, snap)
		for ext, got := range map[string][]byte{".prom": prom.Bytes(), ".json": rec.Body.Bytes()} {
			golden := filepath.Join("testdata", "metrics_"+name+ext)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/server -run TestMetricsGolden -update` to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
					var g, w string
					if i < len(gotLines) {
						g = gotLines[i]
					}
					if i < len(wantLines) {
						w = wantLines[i]
					}
					if g != w {
						t.Errorf("%s line %d:\n got  %s\n want %s", golden, i+1, g, w)
						break
					}
				}
			}
		}
	}
}

// TestFamiliesDocumented checks that docs/OBSERVABILITY.md names every
// family of the exposition by its full name.
func TestFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range families {
		if !bytes.Contains(doc, []byte("`"+f.name+"`")) && !bytes.Contains(doc, []byte("`"+f.name+"{")) {
			t.Errorf("docs/OBSERVABILITY.md does not list %s", f.name)
		}
	}
}
