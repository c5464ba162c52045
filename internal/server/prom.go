package server

import (
	"fmt"
	"io"
	"sort"
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

// promWriter accumulates exposition lines with HELP/TYPE headers.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, formatFloat(v))
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

// writePrometheus renders the full snapshot in exposition format.
func writePrometheus(w io.Writer, snap Snapshot) error {
	p := &promWriter{w: w}

	p.header("mpcserve_uptime_seconds", "Seconds since the metrics registry was created.", "gauge")
	p.value("mpcserve_uptime_seconds", "", snap.UptimeSeconds)

	counters := []struct {
		name, help string
		v          uint64
	}{
		{"mpcserve_requests_total", "Requests received (including rejected ones).", snap.Requests},
		{"mpcserve_errors_total", "Queries that failed during execution.", snap.Errors},
		{"mpcserve_panics_total", "Handler panics recovered to 500s.", snap.Panics},
		{"mpcserve_bad_input_total", "Requests rejected before dispatch (4xx).", snap.BadInput},
		{"mpcserve_timeouts_total", "Queries aborted by deadline or disconnect.", snap.Timeouts},
		{"mpcserve_batches_total", "Batch requests received.", snap.Batches},
		{"mpcserve_degraded_total", "Queries answered by the sequential fallback under deadline pressure.", snap.Degraded},
		{"mpcserve_shed_total", "Requests shed with 429 by the overload controls.", snap.Shed},
	}
	for _, c := range counters {
		p.header(c.name, c.help, "counter")
		p.value(c.name, "", float64(c.v))
	}

	algoNames := make([]string, 0, len(snap.Algorithms))
	for name := range snap.Algorithms {
		algoNames = append(algoNames, name)
	}
	sort.Strings(algoNames)

	p.header("mpcserve_algo_requests_total", "Requests per algorithm.", "counter")
	for _, name := range algoNames {
		p.value("mpcserve_algo_requests_total", algoLabel(name), float64(snap.Algorithms[name].Requests))
	}
	p.header("mpcserve_algo_cache_hits_total", "Cache-served answers per algorithm.", "counter")
	for _, name := range algoNames {
		p.value("mpcserve_algo_cache_hits_total", algoLabel(name), float64(snap.Algorithms[name].CacheHits))
	}
	p.header("mpcserve_algo_errors_total", "Failed queries per algorithm.", "counter")
	for _, name := range algoNames {
		p.value("mpcserve_algo_errors_total", algoLabel(name), float64(snap.Algorithms[name].Errors))
	}

	// Latency histograms: cumulative buckets in seconds.
	p.header("mpcserve_request_duration_seconds", "Query latency (queue + compute).", "histogram")
	for _, name := range algoNames {
		h := snap.Algorithms[name].Latency
		if h == nil {
			continue
		}
		label := algoLabel(name)
		cum := uint64(0)
		for i, ub := range snap.LatencyBuckets {
			cum += h.Buckets[i]
			p.value("mpcserve_request_duration_seconds_bucket",
				label+`,le="`+formatFloat(ub/1000)+`"`, float64(cum))
		}
		p.value("mpcserve_request_duration_seconds_bucket", label+`,le="+Inf"`, float64(h.Count))
		p.value("mpcserve_request_duration_seconds_sum", label, h.SumMs/1000)
		p.value("mpcserve_request_duration_seconds_count", label, float64(h.Count))
	}

	// MPC model aggregates over computed (uncached) runs.
	mpcCounters := []struct {
		name, help string
		get        func(*AlgoStats) float64
	}{
		{"mpcserve_mpc_runs_total", "Completed MPC simulations.", func(a *AlgoStats) float64 { return float64(a.MPCRuns) }},
		{"mpcserve_mpc_total_ops_total", "Total simulated operations.", func(a *AlgoStats) float64 { return float64(a.TotalOps) }},
		{"mpcserve_mpc_comm_words_total", "Total simulated communication volume (words).", func(a *AlgoStats) float64 { return float64(a.TotalComm) }},
		{"mpcserve_mpc_critical_ops_total", "Total critical-path operations.", func(a *AlgoStats) float64 { return float64(a.TotalCritical) }},
		{"mpcserve_mpc_failures_total", "Injected faults observed across simulations.", func(a *AlgoStats) float64 { return float64(a.TotalFailures) }},
		{"mpcserve_mpc_retries_total", "Machine replays that recovered injected faults across simulations.", func(a *AlgoStats) float64 { return float64(a.TotalRetries) }},
	}
	for _, c := range mpcCounters {
		p.header(c.name, c.help, "counter")
		for _, name := range algoNames {
			st := snap.Algorithms[name]
			if st.MPCRuns == 0 {
				continue
			}
			p.value(c.name, algoLabel(name), c.get(st))
		}
	}
	// Per-phase MPC aggregates: the same quantities attributed to the
	// paper phases (candidates / graph / chain), labeled {algo, phase}.
	phaseLabel := func(algo, phase string) string {
		return algoLabel(algo) + `,phase="` + escapeLabel(phase) + `"`
	}
	type phaseCell struct {
		algo, phase string
		agg         *PhaseAgg
	}
	var phaseCells []phaseCell
	for _, name := range algoNames {
		st := snap.Algorithms[name]
		phases := make([]string, 0, len(st.Phases))
		for ph := range st.Phases {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			phaseCells = append(phaseCells, phaseCell{algo: name, phase: ph, agg: st.Phases[ph]})
		}
	}
	phaseCounters := []struct {
		name, help string
		get        func(*PhaseAgg) float64
	}{
		{"mpcserve_mpc_phase_rounds_total", "Simulated rounds executed in this phase.", func(a *PhaseAgg) float64 { return float64(a.Rounds) }},
		{"mpcserve_mpc_phase_total_ops_total", "Simulated operations charged to this phase.", func(a *PhaseAgg) float64 { return float64(a.TotalOps) }},
		{"mpcserve_mpc_phase_comm_words_total", "Simulated communication (words) charged to this phase.", func(a *PhaseAgg) float64 { return float64(a.TotalComm) }},
		{"mpcserve_mpc_phase_critical_ops_total", "Critical-path operations charged to this phase.", func(a *PhaseAgg) float64 { return float64(a.TotalCritical) }},
	}
	for _, c := range phaseCounters {
		if len(phaseCells) == 0 {
			break
		}
		p.header(c.name, c.help, "counter")
		for _, cell := range phaseCells {
			p.value(c.name, phaseLabel(cell.algo, cell.phase), c.get(cell.agg))
		}
	}
	phaseGauges := []struct {
		name, help string
		get        func(*PhaseAgg) float64
	}{
		{"mpcserve_mpc_phase_max_machines", "Max machines observed in this phase in one simulation.", func(a *PhaseAgg) float64 { return float64(a.MaxMachines) }},
		{"mpcserve_mpc_phase_max_words", "Max per-machine words observed in this phase in one simulation.", func(a *PhaseAgg) float64 { return float64(a.MaxWords) }},
	}
	for _, g := range phaseGauges {
		if len(phaseCells) == 0 {
			break
		}
		p.header(g.name, g.help, "gauge")
		for _, cell := range phaseCells {
			p.value(g.name, phaseLabel(cell.algo, cell.phase), g.get(cell.agg))
		}
	}

	mpcGauges := []struct {
		name, help string
		get        func(*AlgoStats) float64
	}{
		{"mpcserve_mpc_max_rounds", "Max rounds observed in one simulation.", func(a *AlgoStats) float64 { return float64(a.MaxRounds) }},
		{"mpcserve_mpc_max_machines", "Max machines observed in one simulation.", func(a *AlgoStats) float64 { return float64(a.MaxMachines) }},
		{"mpcserve_mpc_max_words", "Max per-machine words observed in one simulation.", func(a *AlgoStats) float64 { return float64(a.MaxWords) }},
	}
	for _, g := range mpcGauges {
		p.header(g.name, g.help, "gauge")
		for _, name := range algoNames {
			st := snap.Algorithms[name]
			if st.MPCRuns == 0 {
				continue
			}
			p.value(g.name, algoLabel(name), g.get(st))
		}
	}

	// Pool and cache.
	p.header("mpcserve_pool_size", "Worker-pool capacity.", "gauge")
	p.value("mpcserve_pool_size", "", float64(snap.Pool.Size))
	p.header("mpcserve_pool_running", "Kernels executing right now.", "gauge")
	p.value("mpcserve_pool_running", "", float64(snap.Pool.Running))
	p.header("mpcserve_pool_waiting", "Queries queued for a pool slot.", "gauge")
	p.value("mpcserve_pool_waiting", "", float64(snap.Pool.Waiting))
	p.header("mpcserve_pool_completed_total", "Pool executions completed.", "counter")
	p.value("mpcserve_pool_completed_total", "", float64(snap.Pool.Completed))
	p.header("mpcserve_pool_shed_total", "Pool acquisitions abandoned past the queue-wait budget.", "counter")
	p.value("mpcserve_pool_shed_total", "", float64(snap.Pool.Shed))

	p.header("mpcserve_cache_capacity", "LRU cache capacity in answers.", "gauge")
	p.value("mpcserve_cache_capacity", "", float64(snap.Cache.Capacity))
	p.header("mpcserve_cache_size", "Answers currently cached.", "gauge")
	p.value("mpcserve_cache_size", "", float64(snap.Cache.Size))
	p.header("mpcserve_cache_hits_total", "Cache hits.", "counter")
	p.value("mpcserve_cache_hits_total", "", float64(snap.Cache.Hits))
	p.header("mpcserve_cache_misses_total", "Cache misses.", "counter")
	p.value("mpcserve_cache_misses_total", "", float64(snap.Cache.Misses))
	p.header("mpcserve_cache_evictions_total", "Cache evictions.", "counter")
	p.value("mpcserve_cache_evictions_total", "", float64(snap.Cache.Evictions))

	// Cluster transport: live session counters, present only on distributed
	// servers (the snapshot field is filled at scrape time).
	if t := snap.Transport; t != nil {
		p.header("mpcserve_transport_workers", "Worker processes in the cluster.", "gauge")
		p.value("mpcserve_transport_workers", "", float64(t.Workers))
		p.header("mpcserve_transport_alive", "Live parties, coordinator included.", "gauge")
		p.value("mpcserve_transport_alive", "", float64(t.Alive))
		p.header("mpcserve_transport_bytes_out_total", "Bytes written to the cluster wire.", "counter")
		p.value("mpcserve_transport_bytes_out_total", "", float64(t.Wire.BytesOut))
		p.header("mpcserve_transport_bytes_in_total", "Bytes read from the cluster wire.", "counter")
		p.value("mpcserve_transport_bytes_in_total", "", float64(t.Wire.BytesIn))
		p.header("mpcserve_transport_frames_total", "Frames sent and received on the cluster wire.", "counter")
		p.value("mpcserve_transport_frames_total", "", float64(t.Wire.Frames))
		p.header("mpcserve_transport_exchanges_total", "Completed exchange barriers.", "counter")
		p.value("mpcserve_transport_exchanges_total", "", float64(t.Wire.Exchanges))
		p.header("mpcserve_transport_peers_lost_total", "Peers declared dead (conn error or heartbeat timeout).", "counter")
		p.value("mpcserve_transport_peers_lost_total", "", float64(t.Wire.PeersLost))
		p.header("mpcserve_transport_reassigns_total", "Machine batches re-executed after a peer loss.", "counter")
		p.value("mpcserve_transport_reassigns_total", "", float64(t.Wire.Reassigns))
		p.header("mpcserve_transport_reconnects_total", "Connections recycled and resumed via the rejoin handshake.", "counter")
		p.value("mpcserve_transport_reconnects_total", "", float64(t.Wire.Reconnects))
		p.header("mpcserve_transport_corrupt_frames_total", "Frames rejected by the CRC/length check.", "counter")
		p.value("mpcserve_transport_corrupt_frames_total", "", float64(t.Wire.CorruptFrames))

		peerLabel := func(party int) string {
			return `party="` + strconv.Itoa(party) + `"`
		}
		peerSeries := []struct {
			name, help, typ string
			get             func(transport.PeerStatus) float64
		}{
			{"mpcserve_transport_peer_alive", "Peer liveness (1 alive, 0 lost).", "gauge", func(ps transport.PeerStatus) float64 {
				if ps.Alive {
					return 1
				}
				return 0
			}},
			{"mpcserve_transport_peer_bytes_in_total", "Bytes received from this peer.", "counter", func(ps transport.PeerStatus) float64 { return float64(ps.BytesIn) }},
			{"mpcserve_transport_peer_bytes_out_total", "Bytes sent to this peer.", "counter", func(ps transport.PeerStatus) float64 { return float64(ps.BytesOut) }},
			{"mpcserve_transport_peer_frames_total", "Frames exchanged with this peer.", "counter", func(ps transport.PeerStatus) float64 { return float64(ps.Frames) }},
			{"mpcserve_transport_peer_rtt_p99_seconds", "Heartbeat round-trip p99 (0 until sampled).", "gauge", func(ps transport.PeerStatus) float64 { return ps.RTTP99Ms / 1000 }},
			{"mpcserve_transport_peer_reconnects_total", "Rejoin reconnects on this peer's slot.", "counter", func(ps transport.PeerStatus) float64 { return float64(ps.Reconnects) }},
			{"mpcserve_transport_peer_corrupt_frames_total", "Corrupt frames rejected on this peer's link.", "counter", func(ps transport.PeerStatus) float64 { return float64(ps.CorruptFrames) }},
		}
		for _, s := range peerSeries {
			if len(t.Peers) == 0 {
				break
			}
			p.header(s.name, s.help, s.typ)
			for _, ps := range t.Peers {
				p.value(s.name, peerLabel(ps.Party), s.get(ps))
			}
		}
	}

	// Checkpoint seam: durability activity plus live store gauges, present
	// only on servers started with a checkpoint store.
	if c := snap.Checkpoint; c != nil {
		p.header("mpcserve_checkpoint_saves_total", "Round snapshots persisted to the checkpoint store.", "counter")
		p.value("mpcserve_checkpoint_saves_total", "", float64(c.Saves))
		p.header("mpcserve_checkpoint_resumed_steps_total", "Rounds fast-forwarded from checkpoints instead of recomputed.", "counter")
		p.value("mpcserve_checkpoint_resumed_steps_total", "", float64(c.ResumedSteps))
		p.header("mpcserve_checkpoint_bytes_total", "Blob bytes written to the checkpoint store.", "counter")
		p.value("mpcserve_checkpoint_bytes_total", "", float64(c.BytesWritten))
		p.header("mpcserve_checkpoint_store_blobs", "Blobs in the checkpoint store.", "gauge")
		p.value("mpcserve_checkpoint_store_blobs", "", float64(c.StoreBlobs))
		p.header("mpcserve_checkpoint_store_bytes", "Checkpoint store size in bytes.", "gauge")
		p.value("mpcserve_checkpoint_store_bytes", "", float64(c.StoreBytes))
	}

	// Per-party attribution aggregated over distributed runs.
	if len(snap.Workers) > 0 {
		parties := make([]int, 0, len(snap.Workers))
		for party := range snap.Workers {
			parties = append(parties, party)
		}
		sort.Ints(parties)
		workerLabel := func(party int) string {
			return `party="` + strconv.Itoa(party) + `"`
		}
		workerSeries := []struct {
			name, help string
			get        func(*WorkerAgg) float64
		}{
			{"mpcserve_worker_machine_rounds_total", "Machine-rounds executed by this party.", func(w *WorkerAgg) float64 { return float64(w.MachineRounds) }},
			{"mpcserve_worker_ops_total", "Simulated operations attributed to this party.", func(w *WorkerAgg) float64 { return float64(w.Ops) }},
			{"mpcserve_worker_comm_words_total", "Simulated communication (words) attributed to this party.", func(w *WorkerAgg) float64 { return float64(w.CommWords) }},
			{"mpcserve_worker_queue_wait_seconds_total", "Coordinator time spent waiting on this party at barriers.", func(w *WorkerAgg) float64 { return w.QueueWaitMs / 1000 }},
			{"mpcserve_worker_failures_total", "Injected faults observed on this party.", func(w *WorkerAgg) float64 { return float64(w.Failures) }},
			{"mpcserve_worker_retries_total", "Fault-recovery actions attributed to this party.", func(w *WorkerAgg) float64 { return float64(w.Retries) }},
			{"mpcserve_worker_wire_bytes_total", "Wire bytes on this party's link.", func(w *WorkerAgg) float64 { return float64(w.WireBytes) }},
		}
		for _, s := range workerSeries {
			p.header(s.name, s.help, "counter")
			for _, party := range parties {
				p.value(s.name, workerLabel(party), s.get(snap.Workers[party]))
			}
		}
	}

	return p.err
}
