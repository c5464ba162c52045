// Package dist runs the MPC simulator across real worker processes: a
// coordinator process and N workers, connected over TCP (see
// internal/transport), each running the same deterministic algorithm
// driver from an identical job spec — the SPMD contract. Machine
// execution is partitioned across the processes; everything else (driver
// control flow, shuffle, statistics) is computed redundantly and
// identically everywhere, which is what makes the distributed run
// bit-identical to the in-process one and makes mid-round recovery exact.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mpcdist/internal/baseline"
	"mpcdist/internal/buildinfo"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/fault"
	"mpcdist/internal/transport"
)

// Algorithm names accepted by Job.Algo.
const (
	AlgoUlamMPC = "ulam-mpc"
	AlgoEditMPC = "edit-mpc"
	AlgoEditHSS = "edit-hss"
	AlgoLCSMPC  = "lcs-mpc"
)

// Job is the self-contained spec of one distributed MPC execution:
// algorithm, inputs, and every parameter the deterministic driver depends
// on. It is what the coordinator ships to workers at job start (encoded
// with the same payload codec as round traffic), so two processes holding
// equal Jobs are guaranteed to drive identical clusters.
type Job struct {
	Algo string
	Seed int64

	// core.Params knobs (zero values take the library defaults).
	X         float64
	Eps       float64
	MemFactor float64

	// Faults is the injected fault schedule, retry budget included; nil
	// when fault-free (FromParams and SpecDigest drop an inactive plan).
	// The plan's decisions are pure functions of its fields, so every
	// party re-derives the identical schedule.
	Faults *fault.Plan

	// Inputs: S/T for the byte-string algorithms (edit-mpc, edit-hss,
	// lcs-mpc), P/Q for Ulam permutations.
	S, T []byte
	P, Q []int

	// Resume carries the coordinator's checkpoint resume state (an encoded
	// checkpoint.wireState) when the job continues a previous run, so every
	// worker fast-forwards the identical round prefix. Excluded from
	// SpecDigest: resuming does not change what job this is.
	Resume []byte
}

// SpecDigest is the job's durable identity: the sha256 of the codec
// encoding of the spec with the Resume bytes cleared and an inactive fault
// plan dropped (it injects nothing, so its retry budget changes nothing).
// It keys the checkpoint store — a restarted coordinator recomputes the
// same digest from the same inputs and finds its manifest.
func (j Job) SpecDigest() (string, error) {
	j.Resume = nil
	if !j.Faults.Active() {
		j.Faults = nil
	}
	buf, err := transport.NewCodec().Encode(nil, j)
	if err != nil {
		return "", fmt.Errorf("dist: encoding job spec: %w", err)
	}
	h := sha256.Sum256(buf)
	return hex.EncodeToString(h[:]), nil
}

// resultDigest is the end-of-job cross-check a worker ships home: the
// result value and every deterministic model counter. The coordinator
// compares each worker's digest against its own; any mismatch means the
// SPMD runs diverged and the job is unsound.
type resultDigest struct {
	Err         string
	Value       int64
	Guess       int64
	Regime      string
	Rounds      int64
	MaxMachines int64
	MaxWords    int64
	TotalOps    int64
	CriticalOps int64
	CommWords   int64
	Failures    int64
	Retries     int64
}

func init() {
	transport.Register("dist.Job", Job{})
	transport.Register("dist.resultDigest", resultDigest{})
}

// FromParams copies the deterministic fields of p into a job spec.
// Host-local fields (Ctx, Observer, Parallelism, Transport) stay behind:
// each party supplies its own.
func FromParams(algo string, p core.Params) Job {
	j := Job{
		Algo:      algo,
		Seed:      p.Seed,
		X:         p.X,
		Eps:       p.Eps,
		MemFactor: p.MemFactor,
	}
	if p.Faults.Active() {
		j.Faults = p.Faults
	}
	return j
}

// params assembles the core.Params a party runs the job with. host
// carries the party-local fields (cancellation, observer, transport).
func (j Job) params(host core.Params) core.Params {
	host.X = j.X
	host.Eps = j.Eps
	host.Seed = j.Seed
	host.MemFactor = j.MemFactor
	host.Faults = j.Faults
	return host
}

// Run executes the job's driver in this process: the in-process entry
// every surface shares. host carries the party-local fields
// (cancellation, observer, transport; on a worker, the replayed resume
// prefix). saver, when non-nil, checkpoints every completed round, and
// its tail shorter than the flush cadence is persisted on success, so a
// completed job's store covers every round.
func (j Job) Run(host core.Params, saver *checkpoint.Saver) (core.Result, error) {
	if saver != nil {
		host.Checkpointer = saver
	}
	res, err := j.drive(host)
	if err == nil && saver != nil {
		err = saver.Flush()
	}
	return res, err
}

// drive dispatches the job to its algorithm's driver: the one switch
// behind Run, the coordinator and every worker of a session.
func (j Job) drive(host core.Params) (core.Result, error) {
	p := j.params(host)
	switch j.Algo {
	case AlgoUlamMPC:
		return core.UlamMPC(j.P, j.Q, p)
	case AlgoEditMPC:
		return core.EditMPC(j.S, j.T, p)
	case AlgoEditHSS:
		return baseline.HSSEditMPC(j.S, j.T, p)
	case AlgoLCSMPC:
		return baseline.LCSMPC(j.S, j.T, p)
	}
	return core.Result{}, fmt.Errorf("dist: unknown algorithm %q", j.Algo)
}

// OpenSaver opens the job's checkpoint saver in store: the one opener
// every surface shares, keyed by SpecDigest and stamped with the build's
// revision. With opts.Resume it loads the job's durable prefix, and
// unusable prior state surfaces as its typed checkpoint error.
func (j Job) OpenSaver(store *checkpoint.Store, opts checkpoint.SaverOptions) (*checkpoint.Saver, error) {
	digest, err := j.SpecDigest()
	if err != nil {
		return nil, err
	}
	opts.Revision = buildinfo.Revision()
	return checkpoint.NewSaver(store, digest, j.Algo, opts)
}

// digestOf compresses a driver outcome into the cross-check record.
func digestOf(res core.Result, err error) resultDigest {
	d := resultDigest{
		Value:       int64(res.Value),
		Guess:       int64(res.Guess),
		Regime:      res.Regime,
		Rounds:      int64(res.Report.NumRounds),
		MaxMachines: int64(res.Report.MaxMachines),
		MaxWords:    int64(res.Report.MaxWords),
		TotalOps:    res.Report.TotalOps,
		CriticalOps: res.Report.CriticalOps,
		CommWords:   res.Report.CommWords,
		Failures:    int64(res.Report.Failures),
		Retries:     int64(res.Report.Retries),
	}
	if err != nil {
		d.Err = err.Error()
	}
	return d
}

func encodeValue(c *transport.Codec, v any) ([]byte, error) { return c.Encode(nil, v) }

func decodeJob(c *transport.Codec, data []byte) (Job, error) {
	v, err := c.Decode(data)
	if err != nil {
		return Job{}, err
	}
	j, ok := v.(Job)
	if !ok {
		return Job{}, fmt.Errorf("dist: job frame decoded to %T", v)
	}
	return j, nil
}

func decodeDigest(c *transport.Codec, data []byte) (resultDigest, error) {
	v, err := c.Decode(data)
	if err != nil {
		return resultDigest{}, err
	}
	d, ok := v.(resultDigest)
	if !ok {
		return resultDigest{}, fmt.Errorf("dist: result frame decoded to %T", v)
	}
	return d, nil
}
