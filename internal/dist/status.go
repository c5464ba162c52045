package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

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

// StartStatus serves a live JSON status snapshot over HTTP at addr
// (":8081" style): GET /status — and / as a convenience — returns
// snap()'s JSON encoding (JSONHandler), recomputed per request, so
// `watch curl localhost:8081/status` follows a running session. The
// returned server is already listening; Close it to stop.
//
// Two flight-recorder routes ride along: GET /flight returns the
// process-global recorder's live trace.FlightStats (FlightStatsHandler;
// what cmd/mpctop polls), and GET /debug/flight writes the recorder's
// dump (FlightDumpHandler) without interrupting the run. mpcserve's ops
// listener mounts the same three handlers.
//
// snap typically returns a transport.Status (coordinator or worker view).
// Everything served is advisory host-level state; the endpoint never
// influences the deterministic run.
func StartStatus(addr string, snap func() any) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: status listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	status := JSONHandler(snap)
	mux.HandleFunc("/status", status)
	mux.HandleFunc("/flight", FlightStatsHandler)
	mux.HandleFunc("/debug/flight", FlightDumpHandler)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		status(w, r)
	})
	// Addr carries the bound address back to the caller (useful with
	// ":0"-style requests, where the kernel picks the port).
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, nil
}

// JSONHandler serves snap()'s indented JSON encoding, recomputed per
// request: the /status route, and mpcserve's /version.
func JSONHandler(snap func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, snap()) }
}

// FlightStatsHandler serves the process-global flight recorder's live
// trace.FlightStats (retained counts and rolling round-latency quantiles)
// as JSON: the lightweight /flight poll target, next to the full dump.
func FlightStatsHandler(w http.ResponseWriter, _ *http.Request) {
	serveJSON(w, trace.Flight().Stats())
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// FlightDumpHandler serves the process-global flight recorder's dump as a
// Chrome trace-event file (the format cmd/tracecheck validates). It is
// mounted at /debug/flight on the dist status servers and the mpcserve
// ops listener.
func FlightDumpHandler(w http.ResponseWriter, r *http.Request) {
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
