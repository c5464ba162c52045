package core

import "mpcdist/internal/mpc"

// Payload-codec registrations for the wire types of the paper algorithms
// and the baselines, so a distributed cluster can ship them between
// worker processes (see internal/transport). Names are stable wire
// identifiers: renaming one is a protocol change.
func init() {
	mpc.RegisterPayload("core.ulamJob", (*ulamJob)(nil))
	mpc.RegisterPayload("core.tuples", tuples(nil))
	mpc.RegisterPayload("core.answer", answer{})
	mpc.RegisterPayload("core.Run", (*Run)(nil))
	mpc.RegisterPayload("core.distMsg", distMsg{})
	mpc.RegisterPayload("core.selMsg", selMsg{})
	mpc.RegisterPayload("core.repBatch", (*repBatch)(nil))
	mpc.RegisterPayload("core.runJob", (*runJob)(nil))
	mpc.RegisterPayload("core.extJob", (*extJob)(nil))
	mpc.RegisterPayload("core.winJob", (*winJob)(nil))
}
