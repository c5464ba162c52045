package trace

import (
	"context"
	"runtime/pprof"
)

// Profiler-label support: every simulated machine executes under
// runtime/pprof goroutine labels {algo, phase, round}, so a CPU profile
// taken from mpcserve's -ops listener or mpcbench -cpuprofile attributes
// its samples to the Table 1 phase taxonomy (pprof -tagfocus/-tagshow,
// or the "Tags" view). Drivers additionally label their in-process input
// partitioning with phase=partition via LabelPhase, since block
// partition happens outside simulated rounds (see Phase).
//
// Labels are pure profiler metadata: they cannot affect a deterministic
// counter.

// PhaseLabels builds the goroutine label set for one round. algo is the
// pipeline name ("ulam-mpc", "edit-mpc", ...); callers that don't know it
// should pass "" and get "unlabeled".
func PhaseLabels(algo string, phase Phase, round string) pprof.LabelSet {
	if algo == "" {
		algo = "unlabeled"
	}
	return pprof.Labels("algo", algo, "phase", string(phase), "round", round)
}

// LabelPhase runs f under {algo, phase, round} goroutine labels. Drivers
// wrap their out-of-round work — input partitioning, merges — so profiles
// cover all four phases even though PhasePartition never executes inside
// the simulator.
func LabelPhase(algo string, phase Phase, round string, f func()) {
	pprof.Do(context.Background(), PhaseLabels(algo, phase, round), func(context.Context) { f() })
}
