package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mpcdist"
)

// Query is one distance request. String algorithms read A/B; Ulam
// algorithms read ASeq/BSeq (sequences of distinct integers). The MPC
// parameters are optional and default server-side.
type Query struct {
	// Algo selects the kernel; see Algorithms for the supported names.
	Algo string `json:"algo"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
	ASeq []int  `json:"aSeq,omitempty"`
	BSeq []int  `json:"bSeq,omitempty"`
	// X is the MPC memory exponent (0 = default 0.25).
	X float64 `json:"x,omitempty"`
	// Eps is the approximation slack (0 = default 0.5).
	Eps float64 `json:"eps,omitempty"`
	// Seed drives the MPC sampling streams.
	Seed int64 `json:"seed,omitempty"`
	// Bound caps the distance for algo "edit-bounded".
	Bound int `json:"bound,omitempty"`
}

// Answer is the response to a single query.
type Answer struct {
	Algo     string `json:"algo"`
	Distance int    `json:"distance"`
	// Window is the attaining substring interval (algo "lulam" only).
	Window *WindowJSON `json:"window,omitempty"`
	// Regime and Guess describe the accepted MPC regime (edit MPC only).
	Regime string `json:"regime,omitempty"`
	Guess  int    `json:"guess,omitempty"`
	// Report holds the measured MPC model quantities (MPC algorithms only).
	Report *ReportJSON `json:"report,omitempty"`
	// Degraded reports that the MPC job ran out of deadline and the
	// answer was produced by the algorithm's exact sequential fallback,
	// without a Report. Degraded answers are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// Distributed reports that the answer was computed by a real worker
	// cluster (the server was started with -transport tcp). The distance
	// and every deterministic report counter are bit-identical to the
	// in-process run; only the per-worker rows are extra.
	Distributed bool `json:"distributed,omitempty"`
	// Retries counts the MPC cluster's fault-recovery actions during this
	// run (0 and omitted without fault injection).
	Retries int `json:"retries,omitempty"`
	// ResumedRounds counts rounds fast-forwarded from a checkpoint instead
	// of recomputed (batch queries on a server with a checkpoint store).
	// The distance and every report counter are bit-identical either way.
	ResumedRounds int `json:"resumedRounds,omitempty"`
	// Cached reports whether the answer was served from the LRU cache.
	Cached bool `json:"cached"`
	// ElapsedMs is the compute time of the original (uncached) execution.
	ElapsedMs float64 `json:"elapsedMs"`
	// Trace is the Chrome trace-event file of the MPC run, present only
	// when the query asked for it with ?trace=1.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// WindowJSON mirrors mpcdist.Window for the wire.
type WindowJSON struct {
	Gamma int `json:"gamma"`
	Kappa int `json:"kappa"`
}

// ReportJSON is the wire form of an mpc.Report summary (per-round detail
// is dropped; the metrics endpoint aggregates it). Phases attributes the
// run's cost to the paper phases (candidates / graph / chain) in canonical
// order.
type ReportJSON struct {
	Rounds      int         `json:"rounds"`
	MaxMachines int         `json:"maxMachines"`
	MaxWords    int         `json:"maxWords"`
	TotalOps    int64       `json:"totalOps"`
	CriticalOps int64       `json:"criticalOps"`
	CommWords   int64       `json:"commWords"`
	Failures    int         `json:"failures,omitempty"`
	Retries     int         `json:"retries,omitempty"`
	Phases      []PhaseJSON `json:"phases,omitempty"`
	// Workers attributes the run to cluster parties (distributed runs
	// only; party 0 is the coordinator). Advisory rows — they never feed
	// the deterministic counters above.
	Workers []WorkerJSON `json:"workers,omitempty"`
}

// WorkerJSON is one party's share of a distributed run: the machine-rounds
// it executed (by the deterministic assignment), the model work and
// communication they account for, and the wire traffic on its link.
type WorkerJSON struct {
	Party         int     `json:"party"`
	MachineRounds int     `json:"machineRounds"`
	Ops           int64   `json:"ops"`
	CommWords     int64   `json:"commWords"`
	QueueWaitMs   float64 `json:"queueWaitMs"`
	Failures      int     `json:"failures,omitempty"`
	Retries       int     `json:"retries,omitempty"`
	WireBytes     int64   `json:"wireBytes,omitempty"`
}

// PhaseJSON is one phase's share of a run's Table 1 quantities.
type PhaseJSON struct {
	Phase       string `json:"phase"`
	Rounds      int    `json:"rounds"`
	MaxMachines int    `json:"maxMachines"`
	MaxWords    int    `json:"maxWords"`
	TotalOps    int64  `json:"totalOps"`
	CriticalOps int64  `json:"criticalOps"`
	CommWords   int64  `json:"commWords"`
}

func reportJSON(r mpcdist.Report) *ReportJSON {
	rep := &ReportJSON{
		Rounds:      r.NumRounds,
		MaxMachines: r.MaxMachines,
		MaxWords:    r.MaxWords,
		TotalOps:    r.TotalOps,
		CriticalOps: r.CriticalOps,
		CommWords:   r.CommWords,
		Failures:    r.Failures,
		Retries:     r.Retries,
	}
	for _, ps := range mpcdist.Profile(r).Phases {
		rep.Phases = append(rep.Phases, PhaseJSON{
			Phase:       string(ps.Phase),
			Rounds:      ps.Rounds,
			MaxMachines: ps.MaxMachines,
			MaxWords:    ps.MaxWords,
			TotalOps:    ps.TotalOps,
			CriticalOps: ps.CriticalOps,
			CommWords:   ps.CommWords,
		})
	}
	for _, w := range r.Workers {
		rep.Workers = append(rep.Workers, WorkerJSON{
			Party:         w.Party,
			MachineRounds: w.MachineRounds,
			Ops:           w.Ops,
			CommWords:     w.CommWords,
			QueueWaitMs:   float64(w.QueueWait.Nanoseconds()) / 1e6,
			Failures:      w.Failures,
			Retries:       w.Retries,
			WireBytes:     w.WireBytes,
		})
	}
	return rep
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error string `json:"error"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchItem is one NDJSON line of a batch response: the answer (or error)
// for Queries[Index]. Lines are streamed in completion order.
type BatchItem struct {
	Index  int     `json:"index"`
	Answer *Answer `json:"answer,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// CacheKey fingerprints the query: algorithm, parameters, and a SHA-256
// over the inputs, so equal queries collide and unequal ones do not.
func (q Query) CacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%v|%d|%d|", q.Algo, q.X, q.Eps, q.Seed, q.Bound)
	fmt.Fprintf(h, "a:%d:%s|b:%d:%s|", len(q.A), q.A, len(q.B), q.B)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(q.ASeq)))
	h.Write(buf[:])
	for _, v := range q.ASeq {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(q.BSeq)))
	h.Write(buf[:])
	for _, v := range q.BSeq {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
