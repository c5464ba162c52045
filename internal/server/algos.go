package server

import (
	"fmt"
	"sort"

	"mpcdist"
	"mpcdist/internal/dist"
)

// badRequestError marks client-side failures (unknown algorithm, invalid
// parameters, malformed input) that map to HTTP 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// algoSpec describes one queryable kernel.
type algoSpec struct {
	// Ints means the algorithm consumes ASeq/BSeq (distinct integers)
	// rather than the A/B strings.
	Ints bool
	// MPC means the algorithm runs on the simulated cluster; its X
	// parameter is validated against MaxX and the answer carries a Report.
	MPC bool
	// MaxX is the exclusive upper bound of the valid exponent range
	// (MPC algorithms only); Theorem 9 allows X = 5/17 itself, the slack
	// mirrors core's validation.
	MaxX float64
	// run is a sequential kernel. MPC algorithms have none: their query
	// name is their dist.Job algorithm, and every one runs as a job (see
	// Server.compute).
	run func(q Query, p mpcdist.MPCParams) (Answer, error)
	// degrade, when set, is the sequential fallback the degradation ladder
	// runs if the exact kernel exhausts its (reserve-reduced) deadline: a
	// cheap kernel answering the same question approximately (or exactly
	// but sequentially). The caller marks the result Degraded.
	degrade func(q Query, p mpcdist.MPCParams) (Answer, error)
}

const (
	maxXHalf = 0.5
	maxXEdit = 5.0/17 + 1e-9
)

func seqAnswer(algo, regime string, d int) Answer {
	return Answer{Algo: algo, Distance: d, Regime: regime}
}

func mpcAnswer(algo string, res mpcdist.MPCResult) Answer {
	return Answer{
		Algo:     algo,
		Distance: res.Value,
		Regime:   res.Regime,
		Guess:    res.Guess,
		Retries:  res.Report.Retries,
		Report:   reportJSON(res.Report),
	}
}

// Sequential fallbacks for the degradation ladder. Each answers the MPC
// algorithm's question without the cluster: exact for Ulam/LCS (the
// sequential kernels are fast), the seeded approximation for edit
// distance.
func degradeUlam(q Query, _ mpcdist.MPCParams) (Answer, error) {
	d, err := mpcdist.UlamDistanceE(q.ASeq, q.BSeq)
	if err != nil {
		return Answer{}, badRequestError{msg: err.Error()}
	}
	return seqAnswer("ulam-mpc", "", d), nil
}

func degradeEdit(algo string) func(q Query, p mpcdist.MPCParams) (Answer, error) {
	return func(q Query, p mpcdist.MPCParams) (Answer, error) {
		return seqAnswer(algo, "", mpcdist.ApproxEditDistance([]byte(q.A), []byte(q.B), p.Eps, p.Seed, nil)), nil
	}
}

func degradeLCS(q Query, _ mpcdist.MPCParams) (Answer, error) {
	return seqAnswer("lcs-mpc", "", mpcdist.LCSLength([]byte(q.A), []byte(q.B), nil)), nil
}

// algos is the kernel registry: every supported value of Query.Algo.
var algos = map[string]algoSpec{
	"edit": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("edit", "", mpcdist.EditDistanceBytes([]byte(q.A), []byte(q.B), nil)), nil
	}},
	"edit-myers": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("edit-myers", "", mpcdist.EditDistanceFast([]byte(q.A), []byte(q.B), nil)), nil
	}},
	"edit-diagonal": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("edit-diagonal", "", mpcdist.EditDistanceDiagonal([]byte(q.A), []byte(q.B), nil)), nil
	}},
	"edit-bounded": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		if q.Bound < 0 {
			return Answer{}, badRequestf("bound must be >= 0, got %d", q.Bound)
		}
		return seqAnswer("edit-bounded", "", mpcdist.EditDistanceBounded([]byte(q.A), []byte(q.B), q.Bound, nil)), nil
	}},
	"edit-approx": {run: func(q Query, p mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("edit-approx", "", mpcdist.ApproxEditDistance([]byte(q.A), []byte(q.B), p.Eps, p.Seed, nil)), nil
	}},
	"lcs": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("lcs", "", mpcdist.LCSLength([]byte(q.A), []byte(q.B), nil)), nil
	}},
	"indel": {run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		return seqAnswer("indel", "", mpcdist.IndelDistance([]byte(q.A), []byte(q.B), nil)), nil
	}},
	"ulam": {Ints: true, run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		d, err := mpcdist.UlamDistanceE(q.ASeq, q.BSeq)
		if err != nil {
			return Answer{}, badRequestError{msg: err.Error()}
		}
		return seqAnswer("ulam", "", d), nil
	}},
	"ulam-indel": {Ints: true, run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		// CheckDistinct first: the panicking form is not for untrusted input.
		for _, s := range [][]int{q.ASeq, q.BSeq} {
			if err := mpcdist.CheckDistinct(s); err != nil {
				return Answer{}, badRequestError{msg: err.Error()}
			}
		}
		return seqAnswer("ulam-indel", "", mpcdist.UlamIndelDistance(q.ASeq, q.BSeq)), nil
	}},
	"lulam": {Ints: true, run: func(q Query, _ mpcdist.MPCParams) (Answer, error) {
		d, win, err := mpcdist.LocalUlamE(q.ASeq, q.BSeq)
		if err != nil {
			return Answer{}, badRequestError{msg: err.Error()}
		}
		a := seqAnswer("lulam", "", d)
		a.Window = &WindowJSON{Gamma: win.Gamma, Kappa: win.Kappa}
		return a, nil
	}},
	dist.AlgoUlamMPC: {Ints: true, MPC: true, MaxX: maxXHalf, degrade: degradeUlam},
	dist.AlgoEditMPC: {MPC: true, MaxX: maxXEdit, degrade: degradeEdit(dist.AlgoEditMPC)},
	dist.AlgoEditHSS: {MPC: true, MaxX: maxXHalf, degrade: degradeEdit(dist.AlgoEditHSS)},
	dist.AlgoLCSMPC:  {MPC: true, MaxX: maxXHalf, degrade: degradeLCS},
}

// Algorithms lists the supported algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(algos))
	for name := range algos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
