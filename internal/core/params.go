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
	// HitConst is the constant in the hitting-set rate theta =
	// HitConst·log(n)/(eps'·B) of Algorithm 1 (the paper uses 8; smaller
	// values keep simulator-scale candidate sets manageable at a small
	// failure-probability cost). Zero means 4.
	HitConst float64
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
	// Solver selects the block/candidate pair kernel for the edit-distance
	// small regime (see PairSolver).
	Solver PairSolver
	// Faults, when non-nil and active, injects the plan's deterministic
	// fault schedule into every cluster round (crashes recovered by exact
	// replay, straggler delays); see internal/fault. Nil means fault-free.
	Faults *fault.Plan
	// MaxRetries is the per-machine-round replay budget
	// (0 = mpc.DefaultMaxRetries).
	MaxRetries int
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

// PairSolver selects the per-pair edit-distance kernel used by the
// small-distance regime's machines.
type PairSolver int

const (
	// PairHybridExact (default) picks, per pair, the cheaper of the banded
	// exact kernel capped at the guess-derived relevance threshold and the
	// bit-parallel exact kernel. Exact distances make the small regime a
	// 1+eps scheme. At every simulator-reachable block size the
	// bit-parallel constant 1/64 beats the n^{1/6} asymptotic advantage of
	// [12], so this is also the fastest kernel in practice.
	PairHybridExact PairSolver = iota
	// PairApprox12 uses the approx package's [12]-substitute (factor
	// 3+eps), matching the paper's algorithm as stated. The regime's
	// approximation guarantee becomes 3+eps.
	PairApprox12
	// PairMyers always uses the bit-parallel exact kernel.
	PairMyers
)

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.MemFactor <= 0 {
		p.MemFactor = 16
	}
	if p.HitConst <= 0 {
		p.HitConst = 4
	}
	return p
}

// Validate checks the exponent range for the given problem size.
func (p Params) validate(n int, maxX float64) error {
	if n <= 0 {
		return fmt.Errorf("core: empty input")
	}
	if p.X <= 0 || p.X >= maxX {
		return fmt.Errorf("core: X = %v outside (0, %v)", p.X, maxX)
	}
	return nil
}

// intPow returns round(n^e) clamped to at least 1.
func intPow(n int, e float64) int {
	v := int(math.Round(math.Pow(float64(n), e)))
	if v < 1 {
		v = 1
	}
	return v
}

// memoryBudget is the enforced per-machine cap: MemFactor·n^{1-x}·
// (1+ln n)²/eps² words — the explicit polylog·poly(1/eps) constant behind
// the paper's Õ_eps(n^{1-x}) (candidate sets are Õ(1/eps'^5) per block
// with a log² n factor, Section 4.1).
func (p Params) memoryBudget(n int) int {
	lg := 1 + math.Log(float64(n)+1)
	b := p.MemFactor * math.Pow(float64(n), 1-p.X) * lg * lg / (p.Eps * p.Eps)
	if b < 64 {
		b = 64
	}
	if b > 1<<40 {
		b = 1 << 40
	}
	return int(b)
}

func (p Params) cluster(n int) *mpc.Cluster {
	return mpc.NewCluster(mpc.Config{
		MachineWords: p.memoryBudget(n),
		Parallelism:  p.Parallelism,
		Seed:         p.Seed,
		Ctx:          p.Ctx,
		Observer:     p.Observer,
		Faults:       p.Faults,
		MaxRetries:   p.MaxRetries,
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

// ladder enumerates 1, then ceil((1+eps)^j) without repeats, up to max
// (inclusive); it always ends with a value >= max.
func ladder(eps float64, max int) []int {
	if max < 1 {
		return []int{1}
	}
	var out []int
	v := 1.0
	for {
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WithDefaults returns a copy of p with zero-valued fields replaced by
// their defaults. Exported for the baseline and harness packages.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// Cluster constructs the memory-enforced simulated cluster for problem
// size n. Exported for the baseline and harness packages.
func (p Params) Cluster(n int) *mpc.Cluster { return p.cluster(n) }

// MemoryBudget reports the per-machine word cap for problem size n.
func (p Params) MemoryBudget(n int) int { return p.memoryBudget(n) }
