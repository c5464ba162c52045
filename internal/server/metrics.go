package server

import (
	"net/http"
	"slices"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds in milliseconds; the last
// implicit bucket is +Inf.
var latencyBuckets = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}

// Histogram is a fixed-bucket latency histogram (milliseconds).
type Histogram struct {
	Count   uint64   `json:"count"`
	SumMs   float64  `json:"sumMs"`
	MaxMs   float64  `json:"maxMs"`
	Buckets []uint64 `json:"buckets"` // len(latencyBuckets)+1, last is +Inf
}

func newHistogram() *Histogram {
	return &Histogram{Buckets: make([]uint64, len(latencyBuckets)+1)}
}

func (h *Histogram) observe(ms float64) {
	h.Count++
	h.SumMs += ms
	if ms > h.MaxMs {
		h.MaxMs = ms
	}
	for i, ub := range latencyBuckets {
		if ms <= ub {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(latencyBuckets)]++
}

func (h *Histogram) clone() *Histogram {
	c := *h
	c.Buckets = append([]uint64(nil), h.Buckets...)
	return &c
}

// AlgoStats aggregates the per-algorithm request and MPC-report counters.
type AlgoStats struct {
	Requests  uint64     `json:"requests"`
	CacheHits uint64     `json:"cacheHits"`
	Errors    uint64     `json:"errors"`
	Latency   *Histogram `json:"latency"`
	// MPC report aggregates over computed (uncached) executions.
	MPCRuns       uint64 `json:"mpcRuns,omitempty"`
	MaxRounds     int    `json:"maxRounds,omitempty"`
	MaxMachines   int    `json:"maxMachines,omitempty"`
	MaxWords      int    `json:"maxWords,omitempty"`
	TotalOps      int64  `json:"totalOps,omitempty"`
	TotalComm     int64  `json:"totalCommWords,omitempty"`
	TotalCritical int64  `json:"totalCriticalOps,omitempty"`
	// TotalFailures/TotalRetries sum the clusters' fault and recovery
	// counters over computed runs (0 without fault injection).
	TotalFailures int64 `json:"totalFailures,omitempty"`
	TotalRetries  int64 `json:"totalRetries,omitempty"`
	// Phases attributes the MPC aggregates to paper phases, keyed by
	// phase name (candidates / graph / chain).
	Phases map[string]*PhaseAgg `json:"phases,omitempty"`
}

// PhaseAgg aggregates one (algorithm, phase) cell over computed MPC runs:
// totals accumulate, maxima track the largest single run.
type PhaseAgg struct {
	Rounds        int64 `json:"rounds"`
	MaxMachines   int   `json:"maxMachines"`
	MaxWords      int   `json:"maxWords"`
	TotalOps      int64 `json:"totalOps"`
	TotalComm     int64 `json:"totalCommWords"`
	TotalCritical int64 `json:"totalCriticalOps"`
}

// WorkerAgg aggregates one cluster party's share of distributed runs:
// machine-rounds executed, model work and communication attributed, wire
// traffic on its link, and fault/recovery counts. Keyed by party in the
// snapshot (party 0 is the coordinator).
type WorkerAgg struct {
	MachineRounds int64   `json:"machineRounds"`
	Ops           int64   `json:"ops"`
	CommWords     int64   `json:"commWords"`
	QueueWaitMs   float64 `json:"queueWaitMs"`
	Failures      int64   `json:"failures,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	WireBytes     int64   `json:"wireBytes,omitempty"`
}

// Metrics is the server-wide observability registry behind /metrics: one
// Snapshot under a lock. Queries reach it through outcome.count; the
// cache, pool, transport and store sections are filled at scrape time by
// the server, which owns those components.
type Metrics struct {
	mu      sync.Mutex
	started time.Time
	snap    Snapshot
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{started: time.Now(), snap: Snapshot{
		LatencyBuckets: latencyBuckets,
		Algorithms:     make(map[string]*AlgoStats),
	}}
}

// update applies f to the registry's snapshot under its lock.
func (m *Metrics) update(f func(*Snapshot)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.snap)
}

// outcome is one query's record: Server.record counts it (count) and logs
// it. Every /v1/distance query, batch sub-query and rejected body or
// batch has exactly one.
type outcome struct {
	// algo is the query's algorithm once it passed validation, else "":
	// untrusted names reach neither a label nor a log line.
	algo    string
	elapsed time.Duration // queue + compute
	answer  *Answer       // nil when err is set
	err     error
	// ckpt holds the query's checkpoint saver counters, read once when
	// the query ended; nil without a saver.
	ckpt *CheckpointSnap
}

// count applies the counting rules. Every query counts once in Requests,
// then under exactly one class, which the status of its answer decides:
// bad input (400, 413), shed (429), timed out (503, 504), failed (500),
// cached or computed. A degraded answer also counts in Degraded.
// Per-algorithm stats are kept for every class but bad input, so only
// validated algorithms become label values.
func (o outcome) count(s *Snapshot) {
	s.Requests++
	if c := o.ckpt; c != nil {
		if s.Checkpoint == nil {
			s.Checkpoint = &CheckpointSnap{}
		}
		s.Checkpoint.Saves += c.Saves
		s.Checkpoint.ResumedSteps += c.ResumedSteps
		s.Checkpoint.BytesWritten += c.BytesWritten
	}
	status := http.StatusOK
	if o.err != nil {
		status = statusFor(o.err)
	}
	switch status {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		s.BadInput++
		return
	case http.StatusTooManyRequests:
		s.Shed++
	case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		s.Timeouts++
	case http.StatusInternalServerError:
		s.Errors++
	}
	st := s.Algorithms[o.algo]
	if st == nil {
		st = &AlgoStats{Latency: newHistogram()}
		s.Algorithms[o.algo] = st
	}
	st.Requests++
	st.Latency.observe(float64(o.elapsed.Nanoseconds()) / 1e6)
	switch a := o.answer; {
	case status == http.StatusInternalServerError:
		st.Errors++
	case a == nil: // shed or timed out
	case a.Cached:
		st.CacheHits++
	default:
		if a.Degraded {
			s.Degraded++
		}
		if a.Report != nil {
			st.addRun(a.Report)
			s.addWorkers(a.Report.Workers)
		}
	}
}

// addRun folds one computed MPC run's report into the algorithm's
// aggregates: totals accumulate, maxima track the largest single run.
func (st *AlgoStats) addRun(rep *ReportJSON) {
	st.MPCRuns++
	st.MaxRounds = max(st.MaxRounds, rep.Rounds)
	st.MaxMachines = max(st.MaxMachines, rep.MaxMachines)
	st.MaxWords = max(st.MaxWords, rep.MaxWords)
	st.TotalOps += rep.TotalOps
	st.TotalComm += rep.CommWords
	st.TotalCritical += rep.CriticalOps
	st.TotalFailures += int64(rep.Failures)
	st.TotalRetries += int64(rep.Retries)
	for _, ph := range rep.Phases {
		if st.Phases == nil {
			st.Phases = make(map[string]*PhaseAgg)
		}
		pa := st.Phases[ph.Phase]
		if pa == nil {
			pa = &PhaseAgg{}
			st.Phases[ph.Phase] = pa
		}
		pa.Rounds += int64(ph.Rounds)
		pa.MaxMachines = max(pa.MaxMachines, ph.MaxMachines)
		pa.MaxWords = max(pa.MaxWords, ph.MaxWords)
		pa.TotalOps += ph.TotalOps
		pa.TotalComm += ph.CommWords
		pa.TotalCritical += ph.CriticalOps
	}
}

// addWorkers folds a distributed run's per-party rows into Workers.
func (s *Snapshot) addWorkers(rows []WorkerJSON) {
	for _, w := range rows {
		if s.Workers == nil {
			s.Workers = make(map[int]*WorkerAgg)
		}
		wa := s.Workers[w.Party]
		if wa == nil {
			wa = &WorkerAgg{}
			s.Workers[w.Party] = wa
		}
		wa.MachineRounds += int64(w.MachineRounds)
		wa.Ops += w.Ops
		wa.CommWords += w.CommWords
		wa.QueueWaitMs += w.QueueWaitMs
		wa.Failures += int64(w.Failures)
		wa.Retries += int64(w.Retries)
		wa.WireBytes += w.WireBytes
	}
}

// Snapshot is the JSON shape served by /metrics.
type Snapshot struct {
	UptimeSeconds  float64               `json:"uptimeSeconds"`
	Requests       uint64                `json:"requests"`
	Errors         uint64                `json:"errors"`
	Panics         uint64                `json:"panics"`
	BadInput       uint64                `json:"badInput"`
	Timeouts       uint64                `json:"timeouts"`
	Batches        uint64                `json:"batches"`
	Degraded       uint64                `json:"degraded"`
	Shed           uint64                `json:"shed"`
	LatencyBuckets []float64             `json:"latencyBucketsMs"`
	Algorithms     map[string]*AlgoStats `json:"algorithms"`
	Cache          CacheStats            `json:"cache"`
	Pool           PoolStats             `json:"pool"`
	// Workers aggregates per-party attribution over distributed runs
	// (distributed servers only), keyed by party number.
	Workers map[int]*WorkerAgg `json:"workers,omitempty"`
	// Transport is the live cluster-transport view, filled by the server at
	// scrape time from the session (distributed servers only).
	Transport *TransportJSON `json:"transport,omitempty"`
	// Checkpoint is the durability seam's activity (servers started with a
	// checkpoint store only); store gauges are filled at scrape time.
	Checkpoint *CheckpointSnap `json:"checkpoint,omitempty"`
}

// CheckpointSnap is the checkpoint section of the metrics snapshot.
type CheckpointSnap struct {
	Saves        uint64 `json:"savedSteps"`   // steps persisted since start
	ResumedSteps uint64 `json:"resumedSteps"` // rounds fast-forwarded, not recomputed
	BytesWritten int64  `json:"bytesWritten"` // blob bytes written since start
	StoreBlobs   int    `json:"storeBlobs"`   // gauge: blobs in the store now
	StoreBytes   int64  `json:"storeBytes"`   // gauge: store size now
}

// Snapshot deep-copies the registry and stamps the uptime.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap
	s.UptimeSeconds = time.Since(m.started).Seconds()
	s.LatencyBuckets = slices.Clone(s.LatencyBuckets)
	s.Algorithms = cloneMap(s.Algorithms)
	for _, st := range s.Algorithms {
		st.Latency = st.Latency.clone()
		st.Phases = cloneMap(st.Phases)
	}
	s.Workers = cloneMap(s.Workers)
	s.Checkpoint = clonePtr(s.Checkpoint)
	return s
}

// clonePtr copies *v; nil stays nil.
func clonePtr[V any](v *V) *V {
	if v == nil {
		return nil
	}
	c := *v
	return &c
}

// cloneMap copies a map of pointers one level deep; nil stays nil.
func cloneMap[K comparable, V any](m map[K]*V) map[K]*V {
	if m == nil {
		return nil
	}
	c := make(map[K]*V, len(m))
	for k, v := range m {
		c[k] = clonePtr(v)
	}
	return c
}
