package server

import (
	"net/http"
	"net/http/pprof"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/dist"
)

// OpsHandler serves the operator-only endpoints: the Go pprof suite
// (whose CPU profiles carry the {algo, phase, round} goroutine labels the
// simulator applies — see internal/trace.PhaseLabels), the process-global
// flight recorder's dump at /debug/flight with its live stats at /flight,
// a copy of /metrics, and, when the server runs distributed, the cluster's
// live transport.Status at /status (the routes cmd/mpctop polls). It is
// intentionally not part of Handler() — profiles and dumps expose memory
// contents and must stay off the query port; mpcserve mounts this on a
// separate opt-in listener (-ops).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flight", dist.FlightDumpHandler)
	mux.HandleFunc("GET /flight", dist.FlightStatsHandler)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /version is the binary's build identity (version, VCS revision, Go
	// toolchain): what an operator compares against a checkpoint
	// manifest's recorded revision before trusting a cross-restart resume.
	mux.HandleFunc("GET /version", dist.JSONHandler(func() any { return buildinfo.Get() }))
	if s.cfg.Dist != nil {
		mux.HandleFunc("GET /status", dist.JSONHandler(func() any { return s.cfg.Dist.Status() }))
	}
	return mux
}
