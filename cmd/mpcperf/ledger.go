package main

import (
	"runtime"
	"sync"
	"time"

	"mpcdist/internal/trace"
)

// ledger is the benchmark's trace.Observer (and TransportObserver and
// CheckpointObserver). Between begin and end it timestamps every event on
// arrival and splits the op's wall time into six consecutive intervals on
// the driver goroutine:
//
//	core.driver_ms         op start → first RoundStart, RoundEnd or
//	                       CheckpointSave → next RoundStart, last event → op end
//	mpc.admit_ms           RoundStart → first local MachineStart
//	mpc.exec_ms            first local MachineStart → last local MachineEnd
//	transport.exchange_ms  last local MachineEnd → the exchange TransportEvent
//	mpc.shuffle_ms         end of exchange or execution → RoundEnd
//	checkpoint.save_ms     RoundEnd → CheckpointSave
//
// Each interval starts where the previous one ended, so they sum to the
// op's wall time. Machines replayed from another party arrive after the
// exchange and are counted as runs but do not move the local marks. Events
// outside an op are ignored, so a session can keep one ledger installed
// across traced and untraced ops. One op is recorded at a time.
type ledger struct {
	trace.Base

	mu    sync.Mutex
	on    bool
	start time.Time // the op's start
	op    opRecord
	rnd   roundMarks
	open  bool      // rnd holds a round not yet folded into op
	at    time.Time // end of the last folded interval
	ops   []opRecord
}

// roundMarks are one round's boundary arrival times; zero when the event
// did not occur (no local machine, no exchange, no save).
type roundMarks struct {
	start, firstLocal, lastLocal, exchange, end, save time.Time
}

// opRecord is one traced op's ledger.
type opRecord struct {
	wall   time.Duration
	layers [numLayers]time.Duration

	clusters, rounds, machineRuns, exchanges, saves int
	queueWait, busy                                 time.Duration
	straggler                                       float64
	phaseTime                                       map[trace.Phase]time.Duration
	phaseOps                                        map[trace.Phase]int64
}

func (l *ledger) begin(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on, l.open, l.start, l.at = true, false, t, t
	l.op = opRecord{phaseTime: map[trace.Phase]time.Duration{}, phaseOps: map[trace.Phase]int64{}}
}

func (l *ledger) end(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fold()
	l.op.layers[layerDriver] += t.Sub(l.at)
	l.op.wall = t.Sub(l.start)
	l.ops = append(l.ops, l.op)
	l.on = false
}

// fold closes the open round: each of its intervals runs from the end of
// the previous one.
func (l *ledger) fold() {
	if !l.open {
		return
	}
	r, o := &l.rnd, &l.op
	o.layers[layerDriver] += r.start.Sub(l.at)
	l.at = r.start
	if !r.firstLocal.IsZero() {
		o.layers[layerAdmit] += r.firstLocal.Sub(l.at)
		o.layers[layerExec] += r.lastLocal.Sub(r.firstLocal)
		l.at = r.lastLocal
	}
	for _, mark := range []struct {
		layer int
		t     time.Time
	}{{layerExchange, r.exchange}, {layerShuffle, r.end}, {layerSave, r.save}} {
		if !mark.t.IsZero() {
			o.layers[mark.layer] += mark.t.Sub(l.at)
			l.at = mark.t
		}
	}
	l.open = false
}

func (l *ledger) RoundStart(r trace.RoundInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return
	}
	now := time.Now()
	l.fold()
	l.rnd, l.open = roundMarks{start: now}, true
	if r.Round == 0 {
		l.op.clusters++
	}
}

func (l *ledger) MachineStart(_, _, _ int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on || !l.open || !l.rnd.exchange.IsZero() {
		return // outside an op, or replayed from another party
	}
	now := time.Now()
	if l.rnd.firstLocal.IsZero() {
		l.rnd.firstLocal, l.rnd.lastLocal = now, now
	}
}

func (l *ledger) MachineEnd(s trace.MachineSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return
	}
	now := time.Now()
	o := &l.op
	o.machineRuns++
	o.phaseTime[s.Phase] += s.Duration()
	o.phaseOps[s.Phase] += s.Ops
	if s.Remote || !l.open || !l.rnd.exchange.IsZero() {
		return
	}
	l.rnd.lastLocal = now
	o.queueWait += s.QueueWait
	o.busy += s.Duration()
}

func (l *ledger) RoundEnd(r trace.RoundSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on || !l.open {
		return
	}
	l.rnd.end = time.Now()
	l.op.rounds++
	l.op.straggler = max(l.op.straggler, r.Skew.Straggler)
}

func (l *ledger) Transport(e trace.TransportEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on || e.Kind != trace.TransportExchange {
		return
	}
	l.op.exchanges++
	if l.open {
		l.rnd.exchange = time.Now()
	}
}

func (l *ledger) Checkpoint(e trace.CheckpointEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on || e.Kind != trace.CheckpointSave {
		return
	}
	l.op.saves++
	if l.open {
		l.rnd.save = time.Now()
	}
}

// records returns the ops recorded so far.
func (l *ledger) records() []opRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]opRecord(nil), l.ops...)
}

// conservationSlack is how far below zero a layer may read, and the
// layers' sum may differ from the op's wall time by at most 1%.
const conservationSlack = 50 * time.Microsecond

// conserved reports whether every layer of o is non-negative (within the
// slack) and the layers sum to its wall time within 1%.
func (o *opRecord) conserved() bool {
	var sum time.Duration
	for _, d := range o.layers {
		if d < -conservationSlack {
			return false
		}
		sum += d
	}
	diff := sum - o.wall
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= 0.01*float64(o.wall)
}

// layerMetrics averages the recorded ops into per-op layer metrics.
func layerMetrics(ops []opRecord) map[string]float64 {
	out := map[string]float64{}
	if len(ops) == 0 {
		return out
	}
	n := float64(len(ops))
	var layers [numLayers]time.Duration
	var clusters, rounds, runs, exchanges, saves int
	var queue, busy, exec time.Duration
	var straggler float64
	phaseTime := map[trace.Phase]time.Duration{}
	phaseOps := map[trace.Phase]int64{}
	for _, o := range ops {
		for i, d := range o.layers {
			layers[i] += d
		}
		clusters += o.clusters
		rounds += o.rounds
		runs += o.machineRuns
		exchanges += o.exchanges
		saves += o.saves
		queue += o.queueWait
		busy += o.busy
		exec += o.layers[layerExec]
		straggler += o.straggler
		for p, d := range o.phaseTime {
			phaseTime[p] += d
			phaseOps[p] += o.phaseOps[p]
		}
	}
	for i, d := range layers {
		out[layerNames[i]] = ms(d) / n
	}
	out["core.clusters"] = float64(clusters) / n
	out["mpc.rounds"] = float64(rounds) / n
	out["mpc.machine_runs"] = float64(runs) / n
	out["mpc.queue_wait_ms"] = ms(queue) / n
	if exec > 0 {
		// Share of the execution slots (GOMAXPROCS of them) kept busy by
		// local machines while any local machine of the round ran.
		out["mpc.busy_frac"] = float64(busy) / (float64(exec) * float64(runtime.GOMAXPROCS(0)))
	}
	out["mpc.straggler_max"] = straggler / n
	for _, p := range phases {
		ph := trace.Phase(p)
		out["phase."+p+".cpu_ms"] = ms(phaseTime[ph]) / n
		if phaseOps[ph] > 0 {
			out["phase."+p+".ns_per_op"] = float64(phaseTime[ph].Nanoseconds()) / float64(phaseOps[ph])
		}
	}
	out["transport.exchanges"] = float64(exchanges) / n
	out["checkpoint.saves"] = float64(saves) / n
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
