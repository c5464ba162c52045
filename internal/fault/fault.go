// Package fault is the deterministic fault-injection layer of the MPC
// simulator. Real MPC platforms (MapReduce, Hadoop, Spark) treat machine
// failures and stragglers as the normal case; the paper's algorithms are
// robust to them precisely because every machine's round is a pure
// function of (seed, round, machine, inputs) — the "common seed" device of
// Algorithm 6 makes replay exact. This package supplies the failures; the
// recovery lives in internal/mpc.
//
// A Plan is a fault schedule: given a schedule seed and per-event rates,
// it decides machine crashes and straggler delays as pure functions of
// their coordinates (round, machine, attempt) via SplitMix64 mixing — the
// same mixing the simulator uses for its random streams. Two runs with the
// same Plan see byte-identical fault schedules regardless of goroutine
// scheduling, so any failure a chaos run uncovers replays from its seed
// alone. Message loss is not simulated here: internal/netchaos injects it
// on a real wire, where the transport recovers it.
package fault

import (
	"flag"
	"fmt"
	"time"

	"mpcdist/internal/stats"
)

// Plan is a deterministic fault schedule. The zero value (and a nil *Plan)
// injects nothing; rates are probabilities in [0, 1] evaluated
// independently per coordinate tuple.
type Plan struct {
	// Seed derives every decision; two plans with equal fields produce
	// identical schedules.
	Seed int64
	// Crash is the probability a machine crashes before executing a round
	// attempt (its work is lost before it starts).
	Crash float64
	// CrashAfter is the probability a machine crashes after executing but
	// before its output ships (the attempt's messages are lost).
	CrashAfter float64
	// Straggle is the probability a machine's execution is delayed by
	// Delay this attempt.
	Straggle float64
	// Delay is the injected straggler delay (0 = 2ms).
	Delay time.Duration
}

// Decision-kind salts keep the independent decision streams disjoint even
// at coinciding (seed, round, machine) coordinates.
const (
	kindCrash      uint64 = 0x6372617368000000 // "crash\0\0\0"
	kindCrashAfter uint64 = 0x61667465722d6372 // "after-cr"
	kindStraggle   uint64 = 0x7374726167676c65 // "straggle"
)

// mix64 is the SplitMix64 finalizer — the same mixer internal/mpc uses for
// stream-seed derivation, shared through internal/stats (fault and mpc used
// to hold private copies; one implementation means the fault schedule a
// worker process re-derives from its seed is bit-identical to the
// coordinator's).
func mix64(v uint64) uint64 { return stats.Mix64(v) }

// decide evaluates one Bernoulli decision at the given coordinates. The
// 53-bit mantissa conversion matches rand.Float64's resolution.
func (p *Plan) decide(kind uint64, rate float64, a, b, c int) bool {
	if p == nil {
		return false
	}
	return Decide(p.Seed, kind, rate, a, b, c)
}

// Decide is the shared Bernoulli primitive behind every deterministic
// fault schedule in the repository: a pure function of (seed, kind salt,
// coordinates). internal/netchaos keys its link-fault schedule on the same
// primitive so a wire-chaos run replays from its seed exactly like a
// logical-fault run.
func Decide(seed int64, kind uint64, rate float64, a, b, c int) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return Uniform(seed, kind, a, b, c) < rate
}

// Uniform returns the deterministic uniform [0,1) draw at the given
// coordinates — the quantity Decide thresholds. Exposed for schedules that
// need a magnitude (e.g. netchaos jitter), not just a coin flip.
func Uniform(seed int64, kind uint64, a, b, c int) float64 {
	h := mix64(uint64(seed) ^ kind)
	h = mix64(h ^ uint64(a))
	h = mix64(h ^ uint64(b))
	h = mix64(h ^ uint64(c))
	return float64(h>>11) / (1 << 53)
}

// Active reports whether the plan can inject anything. A nil plan is
// inactive; the simulator's fast path is taken exactly when Active is
// false, so a fault-free run has zero behavioral drift.
func (p *Plan) Active() bool {
	return p != nil && (p.Crash > 0 || p.CrashAfter > 0 || p.Straggle > 0)
}

// CrashBefore reports whether the machine crashes before executing the
// given attempt of the round.
func (p *Plan) CrashBefore(round, machine, attempt int) bool {
	if p == nil {
		return false
	}
	return p.decide(kindCrash, p.Crash, round, machine, attempt)
}

// CrashAfterExec reports whether the machine crashes after executing the
// attempt but before its output ships.
func (p *Plan) CrashAfterExec(round, machine, attempt int) bool {
	if p == nil {
		return false
	}
	return p.decide(kindCrashAfter, p.CrashAfter, round, machine, attempt)
}

// StraggleDelay returns the injected execution delay for the attempt, 0
// for none.
func (p *Plan) StraggleDelay(round, machine, attempt int) time.Duration {
	if p == nil || !p.decide(kindStraggle, p.Straggle, round, machine, attempt) {
		return 0
	}
	if p.Delay > 0 {
		return p.Delay
	}
	return 2 * time.Millisecond
}

// String renders the schedule parameters; two plans with equal strings
// inject identical schedules.
func (p *Plan) String() string {
	if p == nil {
		return "fault.Plan(nil)"
	}
	return fmt.Sprintf("fault.Plan{seed=%d crash=%g crashAfter=%g straggle=%g delay=%s}",
		p.Seed, p.Crash, p.CrashAfter, p.Straggle, p.Delay)
}

// CrashError reports a machine whose round could not complete within the
// retry budget: every attempt up to MaxRetries crashed.
type CrashError struct {
	Round    int    // zero-based round index
	Name     string // round name
	Machine  int
	Attempts int // attempts made (initial execution + retries)
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: machine %d crashed on all %d attempts of round %d (%q); retry budget exhausted",
		e.Machine, e.Attempts, e.Round, e.Name)
}

// BindFlags registers the standard fault-injection flags and -max-retries
// on fs (the shared vocabulary of mpcdist, mpctable, mpcbench, and
// mpcserve) and returns a closure that assembles the Plan and the retry
// budget after fs.Parse. The plan is nil when every rate is zero, so
// nothing is injected; a budget of 0 selects the simulator's default.
func BindFlags(fs *flag.FlagSet) func() (*Plan, int) {
	seed := fs.Int64("fault-seed", 1, "fault-schedule seed (schedules are deterministic and replayable)")
	crash := fs.Float64("fault-crash", 0, "probability a machine crashes before executing a round attempt")
	crashAfter := fs.Float64("fault-crash-after", 0, "probability a machine crashes after executing, losing its output")
	straggle := fs.Float64("fault-straggle", 0, "probability a machine execution is delayed")
	delay := fs.Duration("fault-delay", 2*time.Millisecond, "injected straggler delay")
	retries := fs.Int("max-retries", 0, "fault-recovery budget: replays per machine-round before the round fails (0 = default)")
	return func() (*Plan, int) {
		p := &Plan{Seed: *seed, Crash: *crash, CrashAfter: *crashAfter, Straggle: *straggle, Delay: *delay}
		if !p.Active() {
			return nil, *retries
		}
		return p, *retries
	}
}
