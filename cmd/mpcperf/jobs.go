package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/dist"
	"mpcdist/internal/editdist"
	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

// inputs is a workload's generated input set, with the oracle answer of
// every instance computed at generation.
type inputs interface {
	// fingerprint is the hex sha256 of the generated inputs.
	fingerprint() string
	// limit is how many ops the inputs allow; the timed loop stops there.
	limit() int
	// start sets the program up on the inputs (store, session, server) and
	// runs the untimed warm-up. dir is a fresh scratch directory; obs is
	// the ledger a traced run installs where the program takes it at set-up.
	start(dir string, obs *ledger) (system, error)
}

// system is the program under test, set up and warmed.
type system interface {
	// op runs op i; obs is the ledger on traced ops and nil otherwise.
	op(i int, obs *ledger) sample
	// counters reads cumulative counters from the program's public seams.
	counters() (map[string]float64, error)
	close() error
}

// sample is one op's outcome. wall is filled in by the timed loop.
type sample struct {
	wall   float64 // ms
	traced bool
	failed bool
	// Set on serve-mix only: the request kind, whether the answer came from
	// the cache, and the answer's compute time (Answer.elapsedMs).
	kind      string
	cached    bool
	computeMs float64
}

// eps is the approximation slack every workload runs with (core's default).
const eps = 0.5

// factorFor is the proven approximation factor of an answer: 1+eps for
// Ulam distance (Theorem 4) and for the edit-distance small regime, whose
// pair distances are exact; 3+eps for the large regime (Theorem 9).
func factorFor(algo, regime string) float64 {
	if algo == dist.AlgoUlamMPC || regime == "small" {
		return 1 + eps
	}
	return 3 + eps
}

// proven reports whether v answers an instance of exact distance d within
// factor: never below d, at most factor·d.
func proven(v, d int, factor float64) bool {
	return v >= d && float64(v) <= factor*float64(d)
}

// pair is one generated instance.
type pair struct {
	s, t  []byte // edit-distance inputs
	p, q  []int  // Ulam inputs
	seed  int64  // the job's sampling seed (core.Params.Seed)
	exact int    // oracle distance
}

// jobSeed is the sampling seed (core.Params.Seed) of a workload's i-th
// job. It does not depend on -seed, so runs at different input seeds
// sample alike and their costs differ only through their inputs. This
// matters: edit-far's allocation per job moved by 3% between sampling
// seeds and not at all between inputs.
func jobSeed(i int) int64 {
	z := uint64(i+1) * 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func ulamPair(rng *rand.Rand, n int, seed int64) pair {
	p, q, _ := workload.PlantedUlam(rng, n, int(math.Round(math.Pow(float64(n), 0.6))))
	return pair{p: p, q: q, seed: seed, exact: ulam.Exact(p, q, nil)}
}

func dnaPair(rng *rand.Rand, n, d int, seed int64) pair {
	s := workload.DNA(rng, n)
	t := workload.PlantedDNA(rng, s, d)
	return pair{s: s, t: t, seed: seed, exact: editdist.Myers(s, t, nil)}
}

// farPair is DNA against a string over a disjoint (lower-case) alphabet of
// the same length, so the edit distance is exactly n.
func farPair(rng *rand.Rand, n int, seed int64) pair {
	return pair{s: workload.DNA(rng, n), t: workload.RandomString(rng, n, 26), seed: seed, exact: n}
}

// digest hashes length-prefixed byte strings and integer sequences.
type digest struct{ buf []byte }

func (d *digest) bytes(b []byte) {
	d.buf = binary.AppendUvarint(d.buf, uint64(len(b)))
	d.buf = append(d.buf, b...)
}

func (d *digest) ints(v []int) {
	d.buf = binary.AppendUvarint(d.buf, uint64(len(v)))
	for _, x := range v {
		d.buf = binary.AppendVarint(d.buf, int64(x))
	}
}

func (d *digest) pairs(ps ...pair) {
	for _, p := range ps {
		d.bytes(p.s)
		d.bytes(p.t)
		d.ints(p.p)
		d.ints(p.q)
		d.buf = binary.AppendVarint(d.buf, p.seed)
	}
}

func (d *digest) hex() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}

// runPair runs one instance through the core driver with the given params
// and checks the answer against its oracle.
func runPair(algo string, pr pair, p core.Params) sample {
	var res core.Result
	var err error
	if algo == dist.AlgoUlamMPC {
		res, err = core.UlamMPC(pr.p, pr.q, p)
	} else {
		res, err = core.EditMPC(pr.s, pr.t, p)
	}
	return sample{failed: err != nil || !proven(res.Value, pr.exact, factorFor(algo, res.Regime))}
}

// localJobs runs MPC jobs in this process with a nil transport, the path
// the local modes of mpcdist and mpcserve take. Ops cycle over the pairs;
// a pool larger than a run's op count makes each op a fresh draw of input
// and sampling seed, so a run's median does not hang on a few instances.
type localJobs struct {
	algo  string
	x     float64
	warm  pair
	pairs []pair
}

func (j *localJobs) fingerprint() string {
	var d digest
	d.pairs(j.warm)
	d.pairs(j.pairs...)
	return d.hex()
}

func (j *localJobs) limit() int { return math.MaxInt }

func (j *localJobs) start(string, *ledger) (system, error) {
	if j.run(j.warm, nil).failed {
		return nil, fmt.Errorf("%s warm-up job failed or answered outside the proven factor", j.algo)
	}
	return j, nil
}

func (j *localJobs) run(pr pair, obs *ledger) sample {
	p := core.Params{X: j.x, Seed: pr.seed}
	if obs != nil {
		p.Observer = obs
	}
	return runPair(j.algo, pr, p)
}

func (j *localJobs) op(i int, obs *ledger) sample { return j.run(j.pairs[i%len(j.pairs)], obs) }

func (j *localJobs) counters() (map[string]float64, error) { return nil, nil }

func (j *localJobs) close() error { return nil }

func prepareUlamLarge(seed int64, small bool) inputs {
	n, k := 2048, 32
	if small {
		n, k = 96, 2
	}
	rng := rand.New(rand.NewSource(seed))
	j := &localJobs{algo: dist.AlgoUlamMPC, x: 0.3, warm: ulamPair(rng, n, jobSeed(0))}
	for i := 1; i <= k; i++ {
		j.pairs = append(j.pairs, ulamPair(rng, n, jobSeed(i)))
	}
	return j
}

func prepareEditFar(seed int64, small bool) inputs {
	n, k := 144, 32
	if small {
		n, k = 40, 2
	}
	rng := rand.New(rand.NewSource(seed))
	j := &localJobs{algo: dist.AlgoEditMPC, x: 0.25, warm: farPair(rng, n, jobSeed(0))}
	for i := 1; i <= k; i++ {
		j.pairs = append(j.pairs, farPair(rng, n, jobSeed(i)))
	}
	return j
}

// tcpJobs runs distinct edit-distance jobs through a dist.Session with one
// worker process, checkpointing every round into a store. Inputs are all
// distinct so the store's content-addressed dedup cannot skip blob writes.
// The planted distance puts the exact distance of all but 0.3% of the jobs
// in 28..38, where the guess ladder stops at the same rung (26): at d = 32
// about a third of the jobs stopped one rung earlier, with two thirds of
// the allocation, and a run's cost hung on how many of them it drew.
type tcpJobs struct {
	x     float64
	warm  pair
	pairs []pair
}

func prepareEditTCP(seed int64, small bool) inputs {
	n, d, k := 1024, 38, 1200
	if small {
		n, d, k = 128, 8, 8
	}
	rng := rand.New(rand.NewSource(seed))
	j := &tcpJobs{x: 0.25, warm: dnaPair(rng, n, d, jobSeed(0))}
	for i := 1; i <= k; i++ {
		j.pairs = append(j.pairs, dnaPair(rng, n, d, jobSeed(i)))
	}
	return j
}

func (j *tcpJobs) fingerprint() string {
	var d digest
	d.pairs(j.warm)
	d.pairs(j.pairs...)
	return d.hex()
}

func (j *tcpJobs) limit() int { return len(j.pairs) }

func (j *tcpJobs) start(dir string, obs *ledger) (system, error) {
	store, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &tcpSession{tcpJobs: j}
	opts := dist.SessionOptions{
		Workers:         1,
		Checkpoint:      store,
		CheckpointEvery: 1,
		OnCheckpointFlush: func(_ int, bytes int64) {
			s.flushes.Add(1)
			s.flushBytes.Add(bytes)
		},
	}
	if obs != nil {
		opts.Observer = obs
	}
	if s.sess, err = dist.NewSession(opts); err != nil {
		return nil, err
	}
	if s.run(j.warm).failed {
		s.close()
		return nil, fmt.Errorf("tcp warm-up job failed or answered outside the proven factor")
	}
	return s, nil
}

type tcpSession struct {
	*tcpJobs
	sess                *dist.Session
	flushes, flushBytes atomic.Int64
}

func (s *tcpSession) run(pr pair) sample {
	res, err := s.sess.Run(dist.Job{Algo: dist.AlgoEditMPC, Seed: pr.seed, X: s.x, S: pr.s, T: pr.t})
	return sample{failed: err != nil || !proven(res.Value, pr.exact, factorFor(dist.AlgoEditMPC, res.Regime))}
}

// op ignores obs: the session took the ledger at set-up, and the ledger
// records only between the timed loop's begin and end.
func (s *tcpSession) op(i int, _ *ledger) sample { return s.run(s.pairs[i]) }

func (s *tcpSession) counters() (map[string]float64, error) {
	st := s.sess.Stats()
	return map[string]float64{
		"transport.frames":   float64(st.Frames),
		"transport.wire_kb":  float64(st.BytesIn+st.BytesOut) / 1024,
		"checkpoint.flushes": float64(s.flushes.Load()),
		"checkpoint.kb":      float64(s.flushBytes.Load()) / 1024,
	}, nil
}

func (s *tcpSession) close() error { return s.sess.Close() }
