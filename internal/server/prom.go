package server

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"mpcdist/internal/transport"
)

// Prometheus text exposition (version 0.0.4), hand-rolled so the module
// stays stdlib-only. The JSON snapshot remains available at
// /metrics?format=json; standard scrapers get this format by default.
//
// The latency histograms are kept internally in milliseconds (the JSON
// shape is unchanged); here they are re-emitted in seconds as cumulative
// _bucket/_sum/_count series, the Prometheus convention.

// promContentType is the exposition-format content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelEscaper escapes label values per the exposition format. Hoisted so
// the scrape path doesn't rebuild it once per labeled series.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

// formatFloat renders integers without an exponent and everything else in
// Go's shortest form, matching what Prometheus parsers accept.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func algoLabel(name string) string {
	return `algo="` + escapeLabel(name) + `"`
}

func partyLabel(party int) string {
	return `party="` + strconv.Itoa(party) + `"`
}

// A sample is one exposition line of a family: a name suffix (a
// histogram's _bucket, _sum or _count), a label set and a value.
type sample struct {
	suffix, labels string
	v              float64
}

// A reader reads a family's samples from a snapshot. It reports false
// when the family's section is absent, which drops the family's header
// too.
type reader func(Snapshot) ([]sample, bool)

// A family is one Prometheus metric family: name, help, type, and how its
// samples are read from a snapshot.
type family struct {
	name, help, typ string
	read            reader
}

const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// families is the exposition, in order. Server-wide and per-algorithm
// families are always written; the phase, transport, peer, checkpoint and
// worker families only when their section has samples.
var families = []family{
	{"mpcserve_uptime_seconds", "Seconds since the metrics registry was created.", gauge, scalar(func(s Snapshot) float64 { return s.UptimeSeconds })},
	{"mpcserve_requests_total", "Requests received (including rejected ones).", counter, scalar(func(s Snapshot) float64 { return float64(s.Requests) })},
	{"mpcserve_errors_total", "Queries that failed during execution.", counter, scalar(func(s Snapshot) float64 { return float64(s.Errors) })},
	{"mpcserve_panics_total", "Handler panics recovered to 500s.", counter, scalar(func(s Snapshot) float64 { return float64(s.Panics) })},
	{"mpcserve_bad_input_total", "Requests rejected before dispatch (4xx).", counter, scalar(func(s Snapshot) float64 { return float64(s.BadInput) })},
	{"mpcserve_timeouts_total", "Queries aborted by deadline or disconnect.", counter, scalar(func(s Snapshot) float64 { return float64(s.Timeouts) })},
	{"mpcserve_batches_total", "Batch requests received.", counter, scalar(func(s Snapshot) float64 { return float64(s.Batches) })},
	{"mpcserve_degraded_total", "Queries answered by the sequential fallback under deadline pressure.", counter, scalar(func(s Snapshot) float64 { return float64(s.Degraded) })},
	{"mpcserve_shed_total", "Requests shed with 429 by the overload controls.", counter, scalar(func(s Snapshot) float64 { return float64(s.Shed) })},

	{"mpcserve_algo_requests_total", "Requests per algorithm.", counter, perAlgo(false, func(a *AlgoStats) float64 { return float64(a.Requests) })},
	{"mpcserve_algo_cache_hits_total", "Cache-served answers per algorithm.", counter, perAlgo(false, func(a *AlgoStats) float64 { return float64(a.CacheHits) })},
	{"mpcserve_algo_errors_total", "Failed queries per algorithm.", counter, perAlgo(false, func(a *AlgoStats) float64 { return float64(a.Errors) })},
	{"mpcserve_request_duration_seconds", "Query latency (queue + compute).", histogram, latencySeconds},

	// MPC model aggregates over computed (uncached) runs.
	{"mpcserve_mpc_runs_total", "Completed MPC simulations.", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.MPCRuns) })},
	{"mpcserve_mpc_total_ops_total", "Total simulated operations.", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.TotalOps) })},
	{"mpcserve_mpc_comm_words_total", "Total simulated communication volume (words).", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.TotalComm) })},
	{"mpcserve_mpc_critical_ops_total", "Total critical-path operations.", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.TotalCritical) })},
	{"mpcserve_mpc_failures_total", "Injected faults observed across simulations.", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.TotalFailures) })},
	{"mpcserve_mpc_retries_total", "Machine replays that recovered injected faults across simulations.", counter, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.TotalRetries) })},

	// The same quantities attributed to the paper phases (candidates /
	// graph / chain).
	{"mpcserve_mpc_phase_rounds_total", "Simulated rounds executed in this phase.", counter, perPhase(func(a *PhaseAgg) float64 { return float64(a.Rounds) })},
	{"mpcserve_mpc_phase_total_ops_total", "Simulated operations charged to this phase.", counter, perPhase(func(a *PhaseAgg) float64 { return float64(a.TotalOps) })},
	{"mpcserve_mpc_phase_comm_words_total", "Simulated communication (words) charged to this phase.", counter, perPhase(func(a *PhaseAgg) float64 { return float64(a.TotalComm) })},
	{"mpcserve_mpc_phase_critical_ops_total", "Critical-path operations charged to this phase.", counter, perPhase(func(a *PhaseAgg) float64 { return float64(a.TotalCritical) })},
	{"mpcserve_mpc_phase_max_machines", "Max machines observed in this phase in one simulation.", gauge, perPhase(func(a *PhaseAgg) float64 { return float64(a.MaxMachines) })},
	{"mpcserve_mpc_phase_max_words", "Max per-machine words observed in this phase in one simulation.", gauge, perPhase(func(a *PhaseAgg) float64 { return float64(a.MaxWords) })},

	{"mpcserve_mpc_max_rounds", "Max rounds observed in one simulation.", gauge, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.MaxRounds) })},
	{"mpcserve_mpc_max_machines", "Max machines observed in one simulation.", gauge, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.MaxMachines) })},
	{"mpcserve_mpc_max_words", "Max per-machine words observed in one simulation.", gauge, perAlgo(true, func(a *AlgoStats) float64 { return float64(a.MaxWords) })},

	{"mpcserve_pool_size", "Worker-pool capacity.", gauge, scalar(func(s Snapshot) float64 { return float64(s.Pool.Size) })},
	{"mpcserve_pool_running", "Kernels executing right now.", gauge, scalar(func(s Snapshot) float64 { return float64(s.Pool.Running) })},
	{"mpcserve_pool_waiting", "Queries queued for a pool slot.", gauge, scalar(func(s Snapshot) float64 { return float64(s.Pool.Waiting) })},
	{"mpcserve_pool_completed_total", "Pool executions completed.", counter, scalar(func(s Snapshot) float64 { return float64(s.Pool.Completed) })},
	{"mpcserve_pool_shed_total", "Pool acquisitions abandoned past the queue-wait budget.", counter, scalar(func(s Snapshot) float64 { return float64(s.Pool.Shed) })},
	{"mpcserve_cache_capacity", "LRU cache capacity in answers.", gauge, scalar(func(s Snapshot) float64 { return float64(s.Cache.Capacity) })},
	{"mpcserve_cache_size", "Answers currently cached.", gauge, scalar(func(s Snapshot) float64 { return float64(s.Cache.Size) })},
	{"mpcserve_cache_hits_total", "Cache hits.", counter, scalar(func(s Snapshot) float64 { return float64(s.Cache.Hits) })},
	{"mpcserve_cache_misses_total", "Cache misses.", counter, scalar(func(s Snapshot) float64 { return float64(s.Cache.Misses) })},
	{"mpcserve_cache_evictions_total", "Cache evictions.", counter, scalar(func(s Snapshot) float64 { return float64(s.Cache.Evictions) })},

	// Cluster transport: the live session, on distributed servers only.
	{"mpcserve_transport_workers", "Worker processes in the cluster.", gauge, ofTransport(func(t *TransportJSON) float64 { return float64(t.Workers) })},
	{"mpcserve_transport_alive", "Live parties, coordinator included.", gauge, ofTransport(func(t *TransportJSON) float64 { return float64(t.Alive) })},
	{"mpcserve_transport_bytes_out_total", "Bytes written to the cluster wire.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.BytesOut) })},
	{"mpcserve_transport_bytes_in_total", "Bytes read from the cluster wire.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.BytesIn) })},
	{"mpcserve_transport_frames_total", "Frames sent and received on the cluster wire.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.Frames) })},
	{"mpcserve_transport_exchanges_total", "Completed exchange barriers.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.Exchanges) })},
	{"mpcserve_transport_peers_lost_total", "Peers declared dead (conn error or heartbeat timeout).", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.PeersLost) })},
	{"mpcserve_transport_reassigns_total", "Machine batches re-executed after a peer loss.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.Reassigns) })},
	{"mpcserve_transport_reconnects_total", "Connections recycled and resumed via the rejoin handshake.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.Reconnects) })},
	{"mpcserve_transport_corrupt_frames_total", "Frames rejected by the CRC/length check.", counter, ofTransport(func(t *TransportJSON) float64 { return float64(t.Wire.CorruptFrames) })},
	{"mpcserve_transport_peer_alive", "Peer liveness (1 alive, 0 lost).", gauge, perPeer(func(p transport.PeerStatus) float64 {
		if p.Alive {
			return 1
		}
		return 0
	})},
	{"mpcserve_transport_peer_bytes_in_total", "Bytes received from this peer.", counter, perPeer(func(p transport.PeerStatus) float64 { return float64(p.BytesIn) })},
	{"mpcserve_transport_peer_bytes_out_total", "Bytes sent to this peer.", counter, perPeer(func(p transport.PeerStatus) float64 { return float64(p.BytesOut) })},
	{"mpcserve_transport_peer_frames_total", "Frames exchanged with this peer.", counter, perPeer(func(p transport.PeerStatus) float64 { return float64(p.Frames) })},
	{"mpcserve_transport_peer_rtt_p99_seconds", "Heartbeat round-trip p99 (0 until sampled).", gauge, perPeer(func(p transport.PeerStatus) float64 { return p.RTTP99Ms / 1000 })},
	{"mpcserve_transport_peer_reconnects_total", "Rejoin reconnects on this peer's slot.", counter, perPeer(func(p transport.PeerStatus) float64 { return float64(p.Reconnects) })},
	{"mpcserve_transport_peer_corrupt_frames_total", "Corrupt frames rejected on this peer's link.", counter, perPeer(func(p transport.PeerStatus) float64 { return float64(p.CorruptFrames) })},

	// Checkpoint seam: durability activity plus live store gauges, on
	// servers started with a checkpoint store only.
	{"mpcserve_checkpoint_saves_total", "Round snapshots persisted to the checkpoint store.", counter, ofCheckpoint(func(c *CheckpointSnap) float64 { return float64(c.Saves) })},
	{"mpcserve_checkpoint_resumed_steps_total", "Rounds fast-forwarded from checkpoints instead of recomputed.", counter, ofCheckpoint(func(c *CheckpointSnap) float64 { return float64(c.ResumedSteps) })},
	{"mpcserve_checkpoint_bytes_total", "Blob bytes written to the checkpoint store.", counter, ofCheckpoint(func(c *CheckpointSnap) float64 { return float64(c.BytesWritten) })},
	{"mpcserve_checkpoint_store_blobs", "Blobs in the checkpoint store.", gauge, ofCheckpoint(func(c *CheckpointSnap) float64 { return float64(c.StoreBlobs) })},
	{"mpcserve_checkpoint_store_bytes", "Checkpoint store size in bytes.", gauge, ofCheckpoint(func(c *CheckpointSnap) float64 { return float64(c.StoreBytes) })},

	// Per-party attribution aggregated over distributed runs.
	{"mpcserve_worker_machine_rounds_total", "Machine-rounds executed by this party.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.MachineRounds) })},
	{"mpcserve_worker_ops_total", "Simulated operations attributed to this party.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.Ops) })},
	{"mpcserve_worker_comm_words_total", "Simulated communication (words) attributed to this party.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.CommWords) })},
	{"mpcserve_worker_queue_wait_seconds_total", "Coordinator time spent waiting on this party at barriers.", counter, perWorker(func(w *WorkerAgg) float64 { return w.QueueWaitMs / 1000 })},
	{"mpcserve_worker_failures_total", "Injected faults observed on this party.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.Failures) })},
	{"mpcserve_worker_retries_total", "Fault-recovery actions attributed to this party.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.Retries) })},
	{"mpcserve_worker_wire_bytes_total", "Wire bytes on this party's link.", counter, perWorker(func(w *WorkerAgg) float64 { return float64(w.WireBytes) })},
}

// writePrometheus renders the snapshot in exposition format: every family
// of the table with its HELP/TYPE header and samples.
func writePrometheus(w io.Writer, snap Snapshot) error {
	var b bytes.Buffer
	for _, f := range families {
		samples, ok := f.read(snap)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range samples {
			labels := s.labels
			if labels != "" {
				labels = "{" + labels + "}"
			}
			fmt.Fprintf(&b, "%s%s%s %s\n", f.name, s.suffix, labels, formatFloat(s.v))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// scalar reads one unlabeled sample.
func scalar(get func(Snapshot) float64) reader {
	return func(s Snapshot) ([]sample, bool) { return []sample{{v: get(s)}}, true }
}

// perAlgo reads one sample per algorithm, in name order; mpcOnly skips
// algorithms without a computed MPC run.
func perAlgo(mpcOnly bool, get func(*AlgoStats) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		var out []sample
		for _, name := range sortedKeys(s.Algorithms) {
			if st := s.Algorithms[name]; !mpcOnly || st.MPCRuns > 0 {
				out = append(out, sample{labels: algoLabel(name), v: get(st)})
			}
		}
		return out, true
	}
}

// latencySeconds reads the per-algorithm latency histograms as cumulative
// buckets in seconds.
func latencySeconds(s Snapshot) ([]sample, bool) {
	var out []sample
	for _, name := range sortedKeys(s.Algorithms) {
		h := s.Algorithms[name].Latency
		if h == nil {
			continue
		}
		label := algoLabel(name)
		cum := uint64(0)
		for i, ub := range s.LatencyBuckets {
			cum += h.Buckets[i]
			out = append(out, sample{"_bucket", label + `,le="` + formatFloat(ub/1000) + `"`, float64(cum)})
		}
		out = append(out,
			sample{"_bucket", label + `,le="+Inf"`, float64(h.Count)},
			sample{"_sum", label, h.SumMs / 1000},
			sample{"_count", label, float64(h.Count)})
	}
	return out, true
}

// perPhase reads one sample per (algorithm, phase) cell, both in name
// order.
func perPhase(get func(*PhaseAgg) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		var out []sample
		for _, name := range sortedKeys(s.Algorithms) {
			phases := s.Algorithms[name].Phases
			for _, ph := range sortedKeys(phases) {
				out = append(out, sample{labels: algoLabel(name) + `,phase="` + escapeLabel(ph) + `"`, v: get(phases[ph])})
			}
		}
		return out, len(out) > 0
	}
}

// ofTransport reads one unlabeled sample from the transport section.
func ofTransport(get func(*TransportJSON) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		if s.Transport == nil {
			return nil, false
		}
		return []sample{{v: get(s.Transport)}}, true
	}
}

// perPeer reads one sample per transport peer, in the session's order.
func perPeer(get func(transport.PeerStatus) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		if s.Transport == nil {
			return nil, false
		}
		var out []sample
		for _, p := range s.Transport.Peers {
			out = append(out, sample{labels: partyLabel(p.Party), v: get(p)})
		}
		return out, len(out) > 0
	}
}

// ofCheckpoint reads one unlabeled sample from the checkpoint section.
func ofCheckpoint(get func(*CheckpointSnap) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		if s.Checkpoint == nil {
			return nil, false
		}
		return []sample{{v: get(s.Checkpoint)}}, true
	}
}

// perWorker reads one sample per cluster party, in party order.
func perWorker(get func(*WorkerAgg) float64) reader {
	return func(s Snapshot) ([]sample, bool) {
		var out []sample
		for _, party := range sortedKeys(s.Workers) {
			out = append(out, sample{labels: partyLabel(party), v: get(s.Workers[party])})
		}
		return out, len(out) > 0
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
