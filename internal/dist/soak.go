package dist

import (
	"fmt"
	"io"
	"time"

	"mpcdist/internal/core"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// SoakOptions configure a Soak run.
type SoakOptions struct {
	// Workers per iteration's session (default 2).
	Workers int
	// Iterations is how many chaos sessions to run (default 10).
	Iterations int
	// Plan is the base link-fault schedule; iteration i runs under a copy
	// with Seed = Plan.Seed + i, so one soak sweeps a family of schedules.
	// Nil means a default profile of corruption, drops, and resets.
	Plan *netchaos.Plan
	// Transport tunes liveness. A zero RejoinGrace is raised to 2s —
	// soaking chaos without rejoin would just measure eviction.
	Transport transport.Options
	// Log, when non-nil, receives one line per iteration with the
	// session's advisory wire counters.
	Log io.Writer
}

// Soak replays one job across fresh distributed sessions under a rotating
// family of deterministic link-fault schedules, asserting after every
// iteration that the deterministic result digest is bit-identical to a
// fault-free local run — the repository's core robustness invariant: no
// wire schedule and no reconnect path may ever change a deterministic
// counter. The first divergence triggers a flight dump and fails the
// soak.
func Soak(job Job, opts SoakOptions) error {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 10
	}
	if opts.Plan == nil {
		opts.Plan = &netchaos.Plan{Seed: 1, Corrupt: 0.01, Drop: 0.005, Reset: 0.002}
	}
	if opts.Transport.RejoinGrace <= 0 {
		opts.Transport.RejoinGrace = 2 * time.Second
	}

	// The reference digest comes from a fault-free in-process run: the
	// distributed sessions must land on exactly this, chaos or not.
	ref, rerr := job.Run(core.Params{}, nil)
	want := digestOf(ref, rerr)

	for i := 0; i < opts.Iterations; i++ {
		plan := *opts.Plan
		plan.Seed = opts.Plan.Seed + int64(i)
		s, err := NewSession(SessionOptions{
			Workers:   opts.Workers,
			Transport: opts.Transport,
			NetChaos:  &plan,
		})
		if err != nil {
			return fmt.Errorf("dist: soak iteration %d (seed %d): session: %w", i, plan.Seed, err)
		}
		res, jerr := s.Run(job)
		st := s.Stats()
		s.Close()
		got := digestOf(res, jerr)
		if got != want {
			trace.FlightTrigger("soak: deterministic divergence")
			return fmt.Errorf("dist: soak iteration %d (netchaos seed %d) diverged:\n  got  %+v\n  want %+v",
				i, plan.Seed, got, want)
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log,
				"soak %d/%d seed=%d ok value=%d reconnects=%d corruptFrames=%d peersLost=%d reassigns=%d exchanges=%d\n",
				i+1, opts.Iterations, plan.Seed, got.Value,
				st.Reconnects, st.CorruptFrames, st.PeersLost, st.Reassigns, st.Exchanges)
		}
	}
	return nil
}
