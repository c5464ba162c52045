package server

import (
	"net/http"

	"mpcdist/internal/dist"
)

// OpsHandler serves dist.OpsHandler's operator endpoints (pprof, /flight,
// /debug/flight, /version, and the cluster's live transport.Status at
// /status when the server runs distributed) plus a copy of /metrics. It
// is intentionally not part of Handler(): profiles and dumps expose
// memory contents and must stay off the query port, so mpcserve mounts
// this on a separate opt-in listener (-ops).
func (s *Server) OpsHandler() http.Handler {
	var status func() any
	if s.cfg.Dist != nil {
		status = func() any { return s.cfg.Dist.Status() }
	}
	mux := dist.OpsHandler(status)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
