// Package core implements the paper's contribution: the two-round 1+eps
// MPC algorithm for Ulam distance (Theorem 4, Algorithms 1 and 2) and the
// four-round 3+eps MPC algorithm for edit distance (Theorem 9, Algorithms
// 3-7), on top of the simulated cluster in internal/mpc.
package core

import (
	"context"
	"fmt"
	"math"

	"mpcdist/internal/chain"
	"mpcdist/internal/fault"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// Params configures an MPC execution. The zero value is not valid; use
// DefaultParams or fill in X.
type Params struct {
	// X is the memory exponent: each machine holds Õ(n^{1-X}) words.
	// Theorem 4 requires 0 < X < 1/2; Theorem 9 requires 0 < X <= 5/17.
	X float64
	// Eps is the approximation slack (the paper's epsilon). Zero means 0.5.
	Eps float64
	// Seed drives all sampling (hitting sets, representatives, low-degree
	// sampling) through the cluster's deterministic streams.
	Seed int64
	// MemFactor scales the per-machine memory budget constant hidden in the
	// Õ. Zero means 16. Larger values absorb the polylog·poly(1/eps)
	// factors at small n; the harness reports the memory actually used.
	MemFactor float64
	// Parallelism bounds concurrently simulated machines (0 = GOMAXPROCS).
	Parallelism int
	// Ctx, when non-nil, cancels the simulation between rounds (and before
	// each machine executes), so a caller-imposed timeout or disconnect
	// aborts a long run promptly. Nil means no cancellation.
	Ctx context.Context
	// Observer, when non-nil, receives the cluster's execution events
	// (round and per-machine spans; see internal/trace) — the hook behind
	// the -trace flags and the server's inline traces. Must be safe for
	// concurrent use.
	Observer trace.Observer
	// Faults, when non-nil and active, injects the plan's deterministic
	// fault schedule into every cluster round (crashes recovered by exact
	// replay within the plan's MaxRetries, straggler delays); see
	// internal/fault. Nil means fault-free.
	Faults *fault.Plan
	// Algo names the pipeline for profiler labels and the flight recorder
	// ("ulam-mpc", "edit-mpc", ...). The drivers fill it in on entry when
	// empty, so callers never need to set it; it is advisory observability
	// metadata and never feeds a counter.
	Algo string
	// Transport, when non-nil, runs every cluster round over the given
	// shuffle transport (see internal/transport and internal/dist): the
	// round's machines are partitioned across the transport's parties and
	// execution records are all-gathered at a per-round barrier. Nil means
	// in-process execution. Distance guesses that use several clusters
	// (EditMPC) share the one transport; its exchange sequence numbers run
	// across cluster boundaries.
	Transport transport.Transport
	// Checkpointer, when non-nil, snapshots every completed cluster round
	// and fast-forwards rounds already completed by a previous run (see
	// internal/checkpoint). Drivers that build several clusters per job
	// (EditMPC's guess ladder) share the one Checkpointer; its step counter
	// runs across cluster boundaries. Nil means no durability.
	Checkpointer mpc.Checkpointer
}

// WithDefaults returns a copy of p with zero-valued fields replaced by
// their defaults.
func (p Params) WithDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.MemFactor <= 0 {
		p.MemFactor = 16
	}
	return p
}

// named fills in p's defaults and names the pipeline algo unless p names
// one.
func (p Params) named(algo string) Params {
	p = p.WithDefaults()
	if p.Algo == "" {
		p.Algo = algo
	}
	return p
}

// The exclusive upper bounds of the memory exponent X. Theorem 4 (Ulam)
// and the two baselines, which cut s into n^x blocks the same way, need
// X < 1/2. Theorem 9 (edit distance) allows X = 5/17 itself; the slack
// keeps that value inside the open range CheckParams tests.
const (
	MaxXHalf = 0.5
	MaxXEdit = 5.0/17 + 1e-9
)

// MinEps is the smallest positive eps CheckParams accepts: a guess ladder
// takes about ln(max)/eps steps, so Ladder(MinEps, math.MaxInt64) returns
// in about 10 ms, while at eps = 1e-7 it takes 19 s and at 1e-17 forever.
const MinEps = 1e-4

// CheckParams reports an error unless 0 < x < maxX and eps is finite and,
// if positive, at least MinEps (eps <= 0 selects the default). Every
// surface that takes an exponent or a slack (the drivers, the server,
// mpcdist) checks them here. Every comparison with NaN is false, so the
// range test names what it accepts; a NaN or infinite eps would leave the
// guess ladders no finite step.
func CheckParams(x, eps, maxX float64) error {
	if !(x > 0 && x < maxX) {
		return fmt.Errorf("core: X = %v outside (0, %v)", x, maxX)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) || (eps > 0 && eps < MinEps) {
		return fmt.Errorf("core: eps = %v is not finite or below %v", eps, MinEps)
	}
	return nil
}

// validate checks the problem size and the parameters.
func (p Params) validate(n int, maxX float64) error {
	if n <= 0 {
		return fmt.Errorf("core: empty input")
	}
	return CheckParams(p.X, p.Eps, maxX)
}

// intPow returns round(n^e) clamped to at least 1.
func intPow(n int, e float64) int {
	v := int(math.Round(math.Pow(float64(n), e)))
	if v < 1 {
		v = 1
	}
	return v
}

// MemoryBudget is the enforced per-machine cap: MemFactor·n^{1-x}·
// (1+ln n)²/min(eps,1)² words — the explicit polylog·poly(1/eps) constant
// behind the paper's Õ_eps(n^{1-x}) (candidate sets are Õ(1/eps'^5) per
// block with a log² n factor, Section 4.1; no run shrinks past eps = 1).
func (p Params) MemoryBudget(n int) int {
	lg := 1 + math.Log(float64(n)+1)
	eps := min(p.Eps, 1)
	b := p.MemFactor * math.Pow(float64(n), 1-p.X) * lg * lg / (eps * eps)
	if b < 64 {
		b = 64
	}
	if b > 1<<40 {
		b = 1 << 40
	}
	return int(b)
}

// Cluster constructs the memory-enforced simulated cluster for problem
// size n.
func (p Params) Cluster(n int) *mpc.Cluster {
	return mpc.NewCluster(mpc.Config{
		MachineWords: p.MemoryBudget(n),
		Parallelism:  p.Parallelism,
		Seed:         p.Seed,
		Ctx:          p.Ctx,
		Observer:     p.Observer,
		Faults:       p.Faults,
		Algo:         p.Algo,
		Transport:    p.Transport,
		Checkpointer: p.Checkpointer,
	})
}

// Result is the outcome of an MPC execution.
type Result struct {
	// Value is the computed (approximate) distance.
	Value int
	// Report holds the measured model quantities (rounds, machines, memory,
	// total and critical-path work).
	Report mpc.Report
	// Guess is the accepted distance guess n^delta (edit distance only).
	Guess int
	// Regime is "small", "large", or "" (Ulam / exact zero).
	Regime string
	// GuessReports holds one report per distance guess tried; the paper
	// runs the guesses in parallel, so Report aggregates them with
	// rounds = max, machines/ops = sum (edit distance only).
	GuessReports []mpc.Report
	// Chain is the selected tuple chain realizing Value (Ulam distance
	// only): which block of s maps to which window of sbar. Blocks not
	// present are handled inside the surrounding gaps.
	Chain []chain.Tuple
}

// Ladder enumerates 1, then ceil((1+eps)^j) without repeats, up to max
// (inclusive); it always ends with a value >= max. It is the one ascending
// guess ladder of EditMPC and HSSEditMPC (see Climb); LCSMPC's descending
// ladder steps its own. A step that leaves the int range (a huge eps) ends
// the ladder at max.
func Ladder(eps float64, max int) []int {
	if max < 1 {
		return []int{1}
	}
	var out []int
	v := 1.0
	for {
		if !(v < math.MaxInt64) {
			return append(out, max)
		}
		iv := int(math.Ceil(v))
		if len(out) == 0 || iv > out[len(out)-1] {
			out = append(out, iv)
		}
		if iv >= max {
			return out
		}
		v *= 1 + eps
	}
}
