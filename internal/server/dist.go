package server

import (
	"mpcdist"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/dist"
	"mpcdist/internal/transport"
)

// DistRunner is the seam through which the server runs MPC jobs on a
// distributed cluster instead of in-process. *dist.Session satisfies it
// (cmd/mpcserve attaches one when started with -transport tcp); tests
// substitute fakes. Implementations serialize jobs internally (a session
// runs one at a time), so concurrent pool workers may call RunSaved.
type DistRunner interface {
	// RunSaved executes one job across the cluster, checkpointing it into
	// saver when non-nil (the server opens it; see Server.compute).
	RunSaved(job dist.Job, saver *checkpoint.Saver) (mpcdist.MPCResult, error)
	// Status snapshots the live transport view of the session — worker
	// liveness, wire counters, per-peer heartbeat RTT — for the metrics
	// endpoint. Must be safe to call from any goroutine.
	Status() transport.Status
}

// TransportJSON is the cluster-transport section of the metrics snapshot,
// filled at scrape time from the live session (gauge semantics, like the
// pool and cache sections). Present only when the server runs distributed.
type TransportJSON struct {
	Workers int                    `json:"workers"` // spawned worker processes
	Alive   int                    `json:"alive"`   // live parties, coordinator included
	Wire    transport.Stats        `json:"wire"`
	Peers   []transport.PeerStatus `json:"peers"`
}

// transportJSON shapes a live status snapshot for the metrics endpoint.
func transportJSON(st transport.Status) *TransportJSON {
	return &TransportJSON{
		Workers: st.Parties - 1,
		Alive:   st.Alive,
		Wire:    st.Wire,
		Peers:   st.Peers,
	}
}
