package mpc

import (
	"time"

	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

func init() {
	// The simulator's built-in payload kinds; algorithm packages register
	// their own job/message types the same way from their inits.
	RegisterPayload("mpc.Ints", Ints(nil))
	RegisterPayload("mpc.Bytes", Bytes(nil))
	RegisterPayload("mpc.Int", Int(0))
}

// RegisterPayload adds a payload type to the transport codec's table so it
// can cross process boundaries on a distributed cluster. Call from an init
// function with a stable package-qualified name and any sample value of
// the concrete type machines send (a pointer sample registers the pointer
// type). Registration is mandatory only for distributed runs, but cheap
// enough to do unconditionally.
func RegisterPayload(name string, sample Payload) {
	transport.Register(name, sample)
}

// AssignMachines partitions the round's sorted machine ids across parties
// by input weight: BinPack groups consecutive ids into bins of capacity
// ceil(total/parties), bins map one-to-one onto parties, and any overflow
// bins (first-fit can open up to ~2x the ideal count) merge into the last
// party. The partition is a pure function of its arguments, so every party
// of an SPMD run computes the identical assignment with no coordination.
func AssignMachines(ids []int, weights []int, parties int) [][]int {
	assign := make([][]int, parties)
	if len(ids) == 0 || parties <= 0 {
		return assign
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	capacity := (total + parties - 1) / parties
	if capacity < 1 {
		capacity = 1
	}
	for b, bin := range BinPack(weights, capacity) {
		p := b
		if p >= parties {
			p = parties - 1
		}
		for _, i := range bin {
			assign[p] = append(assign[p], ids[i])
		}
	}
	return assign
}

// replayRemote fires the observer events of machines that executed on
// other parties; in-process machines already fired theirs while running.
// The replayed timestamps are the remote party's offsets rebased onto this
// party's round clock — advisory, like all wall-clock quantities.
func (re *roundExec) replayRemote(merged []transport.Record) {
	if re.obs == nil {
		return
	}
	for _, r := range merged {
		if !r.Remote || !r.Started {
			continue
		}
		re.obs.MachineStart(re.round, r.Machine, re.inWords[r.Machine])
		for _, m := range r.Msgs {
			re.obs.Message(re.round, r.Machine, m.To, m.Data.(Payload).Words())
		}
		re.obs.MachineEnd(re.remoteSpan(r))
	}
}

// remoteSpan reconstructs the trace span of a machine that executed on
// another party. Wall-clock fidelity is approximate (the clocks are
// different); counts and volumes are exact.
func (re *roundExec) remoteSpan(r transport.Record) trace.MachineSpan {
	outWords, fanout := outboxSummary(r.Msgs)
	return trace.MachineSpan{
		Round:     re.round,
		Name:      re.name,
		Phase:     re.phase,
		Machine:   r.Machine,
		Start:     re.base.Add(time.Duration(r.StartNs)),
		End:       re.base.Add(time.Duration(r.EndNs)),
		QueueWait: time.Duration(r.QueueNs),
		Ops:       r.Ops,
		InWords:   re.inWords[r.Machine],
		OutWords:  outWords,
		Sends:     len(r.Msgs),
		Fanout:    fanout,
		Remote:    true,
	}
}

// attribute adds the round's work to the per-party rows by the
// deterministic assignment. It is a pure function of the assignment and
// the merged records, both identical on every party, so the rows agree
// everywhere.
func (re *roundExec) attribute(merged []transport.Record) {
	parties := len(re.assign)
	if parties <= 1 {
		return
	}
	c := re.c
	for p := len(c.workers); p < parties; p++ {
		c.workers = append(c.workers, WorkerStats{Party: p})
	}
	party := make(map[int]int, len(merged))
	for p, ids := range re.assign {
		for _, id := range ids {
			party[id] = p
		}
	}
	for _, r := range merged {
		p, ok := party[r.Machine]
		if !ok {
			continue
		}
		ws := &c.workers[p]
		ws.MachineRounds++
		ws.Ops += r.Ops
		ws.QueueWait += time.Duration(r.QueueNs)
		ws.Failures += r.Failures
		ws.Retries += r.Retries
		ws.CommWords += int64(outboxWords(r.Msgs))
	}
}
