package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// StatusWithCheckpoint is the coordinator's status snapshot when the
// session checkpoints: the transport view plus live checkpoint progress.
// cmd/mpcdist serves it from -status and cmd/mpctop renders it; the
// embedded transport.Status keeps the JSON shape a superset of the plain
// coordinator/worker snapshot.
type StatusWithCheckpoint struct {
	transport.Status
	Checkpoint *checkpoint.Status `json:"checkpoint,omitempty"`
}

// StartStatus serves OpsHandler(snap) over HTTP at addr (":8081" style):
// mpcdist's -status listener. snap typically returns the coordinator's
// transport.Status, recomputed per request, so `watch curl
// localhost:8081/status` follows a running session. The returned server
// is already listening; Close it to stop.
func StartStatus(addr string, snap func() any) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: status listen %s: %w", addr, err)
	}
	// Addr carries the bound address back to the caller (useful with
	// ":0"-style requests, where the kernel picks the port).
	srv := &http.Server{Addr: ln.Addr().String(), Handler: OpsHandler(snap), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, nil
}

// OpsHandler serves the operator endpoints of every listener in the
// repository (StartStatus, and mpcserve's -ops listener, which adds
// /metrics):
//
//   - the Go pprof suite under /debug/pprof/, whose CPU profiles carry
//     the {algo, phase, round} labels of trace.LabelPhase;
//   - GET /flight, the process log's live trace.FlightStats (what
//     cmd/mpctop polls), and /debug/flight, its dump as a Chrome trace
//     (503 with the flight recorder off);
//   - GET /version, the binary's build identity, which an operator
//     compares with a checkpoint manifest's revision before a resume;
//   - when status is non-nil, GET /status and GET /: status()'s JSON.
//
// Everything served is advisory host-level state; the endpoints never
// influence the deterministic run. Profiles and dumps expose memory
// contents, so the handler belongs on an opt-in listener, never on a
// query port.
func OpsHandler(status func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /flight", func(w http.ResponseWriter, _ *http.Request) {
		serveJSON(w, trace.Flight().Stats())
	})
	mux.HandleFunc("/debug/flight", flightDump)
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, _ *http.Request) {
		serveJSON(w, buildinfo.Get())
	})
	if status != nil {
		serve := func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, status()) }
		mux.HandleFunc("GET /status", serve)
		mux.HandleFunc("GET /{$}", serve)
	}
	return mux
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// flightDump serves the process log's dump as a Chrome trace-event file
// (the format cmd/tracecheck validates).
func flightDump(w http.ResponseWriter, _ *http.Request) {
	if !trace.FlightEnabled() {
		http.Error(w, "flight recorder disabled (MPCDIST_FLIGHT=off)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="flight.json"`)
	if _, err := trace.Flight().Dump().WriteTo(w); err != nil {
		// Headers are gone; the trailing write error is all we can log.
		return
	}
}
