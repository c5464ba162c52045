package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/dist"
	"mpcdist/internal/fault"
	"mpcdist/internal/mpc"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
	"mpcdist/internal/workload"
)

// msOf converts a duration to fractional milliseconds for the JSON record.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The bench suite runs the workload generators across sizes and records
// every deterministic model counter (ops, comm words, rounds, machines,
// memory, per-phase breakdowns) plus wall time. The counters are
// parallelism-independent (see the root determinism test), so any change
// in them between two runs of the same suite is a real behavior change —
// cmd/mpcbench compares them exactly and treats wall time as advisory.

// BenchConfig parameterizes a bench run.
type BenchConfig struct {
	Sizes []int // problem sizes; zero means {192, 384}
	Seed  int64
	Eps   float64 // zero means 0.5
	// Faults injects a deterministic fault schedule, retry budget
	// included, into every case's cluster (nil = fault-free). With faults
	// active the deterministic counters must still match a fault-free
	// baseline — recovery is invisible to the model counters — while
	// failures/retries record the recovery overhead.
	Faults *fault.Plan
	// Transport selects the shuffle transport: "local" (default,
	// in-process) or "tcp" (a distributed session of real worker
	// processes, shared across all cases). The deterministic counters are
	// transport-independent — a tcp run must compare exactly against a
	// local baseline — while ElapsedMs and WireBytes record what the
	// transport cost.
	Transport string
	// Workers is the worker-process count for Transport "tcp" (0 = 2).
	Workers int
	// Telemetry turns on the tcp session's trace shipping (ignored on
	// local). Out-of-band by design: a telemetry-on run must compare
	// exactly against a telemetry-off baseline — that is how the bench
	// suite enforces the observability plane's zero-interference invariant.
	Telemetry bool
	// TransportOpts tunes the tcp session's liveness machinery (heartbeat,
	// peer deadline, rejoin grace). Zero means transport defaults.
	TransportOpts transport.Options
	// NetChaos, when active, degrades every tcp link with the deterministic
	// injector. The strongest form of the transport invariant: a chaos run
	// must still compare exactly against the clean local baseline, with the
	// recovery cost visible only in the advisory wire fields.
	NetChaos *netchaos.Plan
	// CheckpointDir, when non-empty, snapshots every case's rounds into a
	// checkpoint store there (flush cadence 1). Checkpointing must be
	// invisible to the deterministic counters — a checkpointed run compares
	// exactly against a plain baseline — while the advisory
	// checkpointSaves/checkpointBytes fields record what durability cost.
	CheckpointDir string
}

func (c BenchConfig) withDefaults() BenchConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{192, 384}
	}
	if c.Eps <= 0 {
		c.Eps = 0.5
	}
	if c.Transport == "" {
		c.Transport = "local"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// BenchPhase is one phase's deterministic counters within a case.
type BenchPhase struct {
	Phase       string `json:"phase"`
	Rounds      int    `json:"rounds"`
	MaxMachines int    `json:"maxMachines"`
	MaxWords    int    `json:"maxWords"`
	TotalOps    int64  `json:"totalOps"`
	CommWords   int64  `json:"commWords"`
}

// BenchResult is one (algorithm, workload, size) cell. Every field except
// ElapsedMs is deterministic given the config.
type BenchResult struct {
	Name        string  `json:"name"` // "algo/workload/n=N"
	Algo        string  `json:"algo"`
	Workload    string  `json:"workload"`
	N           int     `json:"n"`
	X           float64 `json:"x"`
	Value       int     `json:"value"`
	Rounds      int     `json:"rounds"`
	Machines    int     `json:"machines"`
	MaxWords    int     `json:"maxWords"`
	TotalOps    int64   `json:"totalOps"`
	CriticalOps int64   `json:"criticalOps"`
	CommWords   int64   `json:"commWords"`
	// Failures/Retries are the cluster's fault-injection and recovery
	// counters — exactly zero on a fault-free run, so any drift here is a
	// recovery-overhead regression CompareBench flags.
	Failures  int          `json:"failures"`
	Retries   int          `json:"retries"`
	Phases    []BenchPhase `json:"phases"`
	ElapsedMs float64      `json:"elapsedMs"` // wall time; advisory, never compared
	// RoundP50Ms/P95Ms/P99Ms are round-latency quantiles (nearest rank)
	// over the case's per-round machine-execution wall times. Advisory
	// like ElapsedMs: reported, never compared.
	RoundP50Ms float64 `json:"roundP50Ms,omitempty"`
	RoundP95Ms float64 `json:"roundP95Ms,omitempty"`
	RoundP99Ms float64 `json:"roundP99Ms,omitempty"`
	// WireBytes is the case's transport traffic (both directions, all
	// workers). Local runs count the logical codec encoding of each
	// exchange, tcp runs the real wire (framing and handshakes included),
	// so the two are comparable but not equal. Advisory, never compared.
	WireBytes int64 `json:"wireBytes,omitempty"`
	// Reconnects/CorruptFrames are the case's self-healing activity on a
	// tcp session (worker rejoins and CRC-rejected frames). Advisory like
	// WireBytes — CompareBench never gates on them — they exist so a chaos
	// bench records what the link survived while the counters stayed exact.
	Reconnects    int64 `json:"reconnects,omitempty"`
	CorruptFrames int64 `json:"corruptFrames,omitempty"`
	// CheckpointSaves/CheckpointBytes are the case's durability activity
	// when BenchConfig.CheckpointDir is set: steps persisted and blob bytes
	// written. Advisory like WireBytes — CompareBench never gates on them —
	// so a checkpointed run still diffs exactly against a plain baseline.
	CheckpointSaves int   `json:"checkpointSaves,omitempty"`
	CheckpointBytes int64 `json:"checkpointBytes,omitempty"`
}

// BenchFile is the BENCH_<stamp>.json schema.
type BenchFile struct {
	Stamp string  `json:"stamp"` // RFC 3339; excluded from comparison
	Seed  int64   `json:"seed"`
	Eps   float64 `json:"eps"`
	Sizes []int   `json:"sizes"`
	// Transport/Workers record how the suite ran. Deliberately excluded
	// from CompareBench's config gate: counters must match across
	// transports, and diffing a tcp run against the local baseline is
	// exactly how that invariant is checked.
	Transport string `json:"transport,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// Telemetry records whether the tcp session shipped trace events.
	// Excluded from the config gate for the same reason as Transport:
	// diffing telemetry-on against a telemetry-off baseline is the check.
	Telemetry bool `json:"telemetry,omitempty"`
	// NetChaos records the link-fault schedule the suite ran under, if
	// any. Excluded from the config gate: diffing a chaos run against the
	// clean baseline is exactly the robustness invariant.
	NetChaos string `json:"netchaos,omitempty"`
	// Checkpoint records the store directory the suite snapshotted into, if
	// any. Excluded from the config gate: diffing a checkpointed run against
	// a plain baseline is exactly the zero-interference check.
	Checkpoint string        `json:"checkpointDir,omitempty"`
	Results    []BenchResult `json:"results"`
}

// benchInput is one case's generated problem instance: a byte pair for
// the edit-distance algorithms, a permutation pair for Ulam.
type benchInput struct {
	s, sbar []byte
	p, q    []int
}

// benchCase is one algorithm × workload generator of the suite. gen is
// separated from the job it feeds, so the identical inputs — same rng
// construction, same call sequence — run on whichever shuffle transport
// the run selects.
type benchCase struct {
	// algo prefixes the case name (BENCH_baseline.json is keyed on it);
	// job is the dist.Job algorithm the case runs ("hss" runs edit-hss).
	algo, job, workload string
	x                   float64
	gen                 func(n int) benchInput
}

// benchCases returns the suite: the paper's two algorithms and the two
// baselines, each over workload-generator families with planted sublinear
// distances (d ~ n^0.5, ulam n^0.6).
func benchCases(seed int64) []benchCase {
	// salt de-correlates the rng streams of workloads that share a
	// generator structure (identical streams would yield identical op
	// counts and hide a per-workload regression).
	editPair := func(n int, salt int64, gen func(rng *rand.Rand, n int) ([]byte, []byte)) benchInput {
		rng := rand.New(rand.NewSource(seed*104729 + int64(n) + salt))
		s, sbar := gen(rng, n)
		return benchInput{s: s, sbar: sbar}
	}
	plantedRandom := func(n int) benchInput {
		return editPair(n, 0, func(rng *rand.Rand, n int) ([]byte, []byte) {
			s := workload.RandomString(rng, n, 4)
			return s, workload.PlantedEdits(rng, s, planted(n, 0.5), 4)
		})
	}
	return []benchCase{
		{
			algo: "ulam-mpc", job: dist.AlgoUlamMPC, workload: "planted-perm", x: 0.3,
			gen: func(n int) benchInput {
				rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
				s, sbar, _ := workload.PlantedUlam(rng, n, planted(n, 0.6))
				return benchInput{p: s, q: sbar}
			},
		},
		{
			algo: "ulam-mpc", job: dist.AlgoUlamMPC, workload: "block-move", x: 0.3,
			gen: func(n int) benchInput {
				rng := rand.New(rand.NewSource(seed*7919 + int64(n) + 1))
				s := workload.Permutation(rng, n)
				sbar := workload.BlockMoveInts(rng, s, planted(n, 0.5))
				return benchInput{p: s, q: sbar}
			},
		},
		{
			algo: "edit-mpc", job: dist.AlgoEditMPC, workload: "planted-random", x: 0.25,
			gen: plantedRandom,
		},
		{
			algo: "edit-mpc", job: dist.AlgoEditMPC, workload: "planted-dna", x: 0.25,
			gen: func(n int) benchInput {
				return editPair(n, 1000, func(rng *rand.Rand, n int) ([]byte, []byte) {
					s := workload.DNA(rng, n)
					return s, workload.PlantedDNA(rng, s, planted(n, 0.5))
				})
			},
		},
		{
			algo: "edit-mpc", job: dist.AlgoEditMPC, workload: "periodic-shift", x: 0.25,
			gen: func(n int) benchInput {
				// Shift by a non-multiple of the effective period (sigma
				// caps it at 4), so the rotation is a real, small edit.
				s := workload.Periodic(n, 16, 4)
				return benchInput{s: s, sbar: workload.Shift(s, 7)}
			},
		},
		{
			algo: "edit-mpc", job: dist.AlgoEditMPC, workload: "zipf-blockmove", x: 0.25,
			gen: func(n int) benchInput {
				return editPair(n, 2000, func(rng *rand.Rand, n int) ([]byte, []byte) {
					s := workload.Zipf(rng, n, 16)
					return s, workload.BlockMove(rng, s, planted(n, 0.5))
				})
			},
		},
		{
			algo: "hss", job: dist.AlgoEditHSS, workload: "planted-random", x: 0.25,
			gen: plantedRandom,
		},
		{
			algo: "lcs-mpc", job: dist.AlgoLCSMPC, workload: "planted-random", x: 0.25,
			gen: plantedRandom,
		},
	}
}

// benchPhases flattens a report's phase profile for the JSON record.
func benchPhases(rep mpc.Report) []BenchPhase {
	var out []BenchPhase
	for _, ps := range mpc.Profile(rep).Phases {
		out = append(out, BenchPhase{
			Phase:       string(ps.Phase),
			Rounds:      ps.Rounds,
			MaxMachines: ps.MaxMachines,
			MaxWords:    ps.MaxWords,
			TotalOps:    ps.TotalOps,
			CommWords:   ps.CommWords,
		})
	}
	return out
}

// RunBench executes the suite and returns the record. Results are sorted
// by name so the JSON is diff-stable.
func RunBench(cfg BenchConfig) (BenchFile, error) {
	cfg = cfg.withDefaults()
	file := BenchFile{
		Stamp: time.Now().UTC().Format(time.RFC3339),
		Seed:  cfg.Seed, Eps: cfg.Eps, Sizes: cfg.Sizes,
		Transport: cfg.Transport,
	}
	var store *checkpoint.Store
	if cfg.CheckpointDir != "" {
		var err error
		if store, err = checkpoint.Open(cfg.CheckpointDir); err != nil {
			return BenchFile{}, err
		}
		file.Checkpoint = cfg.CheckpointDir
	}
	var sess *dist.Session
	var local *transport.Local
	switch cfg.Transport {
	case "local":
		// The counting in-process transport makes local WireBytes a
		// logical-encoding measure comparable against tcp runs (which add
		// framing and handshake traffic on top of the same payload codec).
		local = transport.NewLocal()
	case "tcp":
		var err error
		sess, err = dist.NewSession(dist.SessionOptions{Workers: cfg.Workers, Telemetry: cfg.Telemetry,
			Transport: cfg.TransportOpts, NetChaos: cfg.NetChaos})
		if err != nil {
			return BenchFile{}, err
		}
		defer sess.Close()
		file.Workers = cfg.Workers
		file.Telemetry = cfg.Telemetry
		if cfg.NetChaos.Active() {
			file.NetChaos = cfg.NetChaos.String()
		}
	default:
		return BenchFile{}, fmt.Errorf("harness: unknown transport %q (want local or tcp)", cfg.Transport)
	}
	stats := func() transport.Stats {
		if sess != nil {
			return sess.Stats()
		}
		return local.Stats()
	}
	for _, bc := range benchCases(cfg.Seed) {
		for _, n := range cfg.Sizes {
			in := bc.gen(n)
			job := dist.FromParams(bc.job, core.Params{X: bc.x, Eps: cfg.Eps, Seed: cfg.Seed, Faults: cfg.Faults})
			job.S, job.T, job.P, job.Q = in.s, in.sbar, in.p, in.q
			var saver *checkpoint.Saver
			var err error
			if store != nil {
				// One saver per case, keyed by the job-spec digest on either
				// transport.
				if saver, err = job.OpenSaver(store, checkpoint.SaverOptions{}); err != nil {
					return BenchFile{}, err
				}
			}
			start := time.Now()
			wireStart := stats()
			var res core.Result
			if sess != nil {
				res, err = sess.RunSaved(job, saver)
			} else {
				res, err = job.Run(core.Params{Transport: local}, saver)
			}
			if err != nil {
				return BenchFile{}, fmt.Errorf("harness: bench %s/%s n=%d: %w", bc.algo, bc.workload, n, err)
			}
			ckptSaves, ckptBytes := 0, int64(0)
			if saver != nil {
				ckptSaves, _, ckptBytes = saver.Counters()
			}
			times := make([]time.Duration, 0, len(res.Report.Rounds))
			for _, rs := range res.Report.Rounds {
				times = append(times, rs.Elapsed)
			}
			rq := trace.Quantiles(times)
			wireEnd := stats()
			file.Results = append(file.Results, BenchResult{
				Name:     fmt.Sprintf("%s/%s/n=%d", bc.algo, bc.workload, n),
				Algo:     bc.algo,
				Workload: bc.workload,
				N:        n, X: bc.x,
				Value:           res.Value,
				Rounds:          res.Report.NumRounds,
				Machines:        res.Report.MaxMachines,
				MaxWords:        res.Report.MaxWords,
				TotalOps:        res.Report.TotalOps,
				CriticalOps:     res.Report.CriticalOps,
				CommWords:       res.Report.CommWords,
				Failures:        res.Report.Failures,
				Retries:         res.Report.Retries,
				Phases:          benchPhases(res.Report),
				ElapsedMs:       float64(time.Since(start).Nanoseconds()) / 1e6,
				RoundP50Ms:      msOf(rq.P50),
				RoundP95Ms:      msOf(rq.P95),
				RoundP99Ms:      msOf(rq.P99),
				WireBytes:       wireEnd.BytesIn + wireEnd.BytesOut - wireStart.BytesIn - wireStart.BytesOut,
				Reconnects:      int64(wireEnd.Reconnects - wireStart.Reconnects),
				CorruptFrames:   int64(wireEnd.CorruptFrames - wireStart.CorruptFrames),
				CheckpointSaves: ckptSaves,
				CheckpointBytes: ckptBytes,
			})
		}
	}
	sort.Slice(file.Results, func(i, j int) bool { return file.Results[i].Name < file.Results[j].Name })
	return file, nil
}

// CompareBench checks cur against old and returns the deterministic-counter
// changes: a regression gate, where any entry means the model behavior
// changed. Wall time is not compared (cmd/mpcperf measures it).
func CompareBench(old, cur BenchFile) (diffs []string) {
	if old.Seed != cur.Seed || old.Eps != cur.Eps {
		return []string{fmt.Sprintf("config mismatch: old seed=%d eps=%g, new seed=%d eps=%g (comparison requires identical config)",
			old.Seed, old.Eps, cur.Seed, cur.Eps)}
	}
	oldByName := map[string]BenchResult{}
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	seen := map[string]bool{}
	for _, nr := range cur.Results {
		or, ok := oldByName[nr.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: new case not in baseline", nr.Name))
			continue
		}
		seen[nr.Name] = true
		check := func(field string, o, n int64) {
			if o != n {
				diffs = append(diffs, fmt.Sprintf("%s: %s %d -> %d", nr.Name, field, o, n))
			}
		}
		check("value", int64(or.Value), int64(nr.Value))
		check("rounds", int64(or.Rounds), int64(nr.Rounds))
		check("machines", int64(or.Machines), int64(nr.Machines))
		check("maxWords", int64(or.MaxWords), int64(nr.MaxWords))
		check("totalOps", or.TotalOps, nr.TotalOps)
		check("criticalOps", or.CriticalOps, nr.CriticalOps)
		check("commWords", or.CommWords, nr.CommWords)
		check("failures", int64(or.Failures), int64(nr.Failures))
		check("retries", int64(or.Retries), int64(nr.Retries))
		check("phases", int64(len(or.Phases)), int64(len(nr.Phases)))
		if len(or.Phases) == len(nr.Phases) {
			for i := range nr.Phases {
				op, np := or.Phases[i], nr.Phases[i]
				if op.Phase != np.Phase {
					diffs = append(diffs, fmt.Sprintf("%s: phase[%d] %s -> %s", nr.Name, i, op.Phase, np.Phase))
					continue
				}
				pf := func(field string, o, n int64) {
					check(fmt.Sprintf("phase[%s].%s", np.Phase, field), o, n)
				}
				pf("rounds", int64(op.Rounds), int64(np.Rounds))
				pf("maxMachines", int64(op.MaxMachines), int64(np.MaxMachines))
				pf("maxWords", int64(op.MaxWords), int64(np.MaxWords))
				pf("totalOps", op.TotalOps, np.TotalOps)
				pf("commWords", op.CommWords, np.CommWords)
			}
		}
	}
	for _, r := range old.Results {
		if !seen[r.Name] {
			diffs = append(diffs, fmt.Sprintf("%s: baseline case missing from new run", r.Name))
		}
	}
	return diffs
}
