package mpc

import "mpcdist/internal/trace"

// The checkpoint seam. The MPC model keeps all inter-round state in the
// shuffled record sets — a machine's view of round r+1 is exactly the
// payloads round r addressed to it, and every random stream is derived
// arithmetically from (seed, round, machine) with no evolving generator
// state. Round boundaries are therefore complete recovery points: a
// snapshot of the merged post-shuffle outputs plus the round's measured
// stats is everything a crashed job needs to continue bit-identically.
// internal/checkpoint implements the durable store; this file defines only
// the interface so mpc stays free of any storage dependency.

// RoundSnapshot is the durable record of one completed round.
type RoundSnapshot struct {
	// Step is the job-global checkpoint step index. Rounds are numbered
	// per cluster but a job may run several clusters back to back (the
	// edit-distance guess ladder builds one per guess), so the
	// Checkpointer keys snapshots by a monotonic step counter it advances
	// across cluster boundaries. Filled in by the Checkpointer.
	Step int
	// Round is the round index within its cluster.
	Round int
	Name  string
	Phase trace.Phase
	// Stats are the completed round's measured quantities. A resumed run
	// restores them verbatim, so the aggregated report — including the
	// deterministic counters in the result digest — is bit-identical to an
	// uninterrupted run's.
	Stats RoundStats
	// Next is the merged post-shuffle record set the round produced: the
	// next round's inputs, and the only inter-round state in the model.
	Next map[int][]Payload
}

// Checkpointer is Cluster.Run's durability seam. Run calls Resume exactly
// once at the start of every round and Save exactly once after every
// successfully completed live round, always from the driving goroutine.
//
// On a distributed run every party must hold an equivalent Checkpointer
// (the coordinator ships its resume state inside the job spec): resumed
// rounds return before the exchange barrier, so all parties must
// fast-forward the same prefix or the transport's sequence numbers
// diverge.
type Checkpointer interface {
	// Resume reports whether the upcoming round already completed in a
	// previous run. A non-nil snapshot fast-forwards the round: the
	// cluster appends the saved stats and returns the saved outputs
	// without executing machines or touching the transport. nil means run
	// live. Implementations must verify that (round, name, phase) and the
	// shape of the round's inputs (their machine count and largest
	// PayloadWords, which a stored step's Stats hold as Machines and
	// MaxInWords) match the stored step, and return a typed divergence
	// error otherwise. Only a stored step needs the shape, so a round with
	// nothing to fast-forward costs no pass over its inputs.
	Resume(round int, name string, phase trace.Phase, inputs map[int][]Payload) (*RoundSnapshot, error)
	// Save persists the completed round (implementations set snap.Step and
	// may buffer; see internal/checkpoint's flush cadence). A Save failure
	// fails the round — a job that asked for durability must not silently
	// run past a dead store.
	Save(snap *RoundSnapshot) error
}
