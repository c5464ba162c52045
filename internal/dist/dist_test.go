package dist

import (
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"mpcdist/internal/core"
	"mpcdist/internal/fault"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
	"mpcdist/internal/workload"
)

// TestMain lets the test binary serve as its own worker processes: a
// session spawned inside a test re-execs this binary, and MaybeWorkerMain
// hijacks those copies before any test runs.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	os.Exit(m.Run())
}

// parityJobs builds one job per MPC pipeline over deterministic inputs
// sized so the full suite stays test-budget fast but every phase runs.
// The planted-substitution edit pair accepts in the small regime; the far
// pair (DNA against a disjoint alphabet, ed = n = 64) fails the small
// regime's last guess, 39, and accepts at the large guess 58, so the
// large regime's four rounds run too. The LCS extension's job, last,
// runs the planted pair, whose machines read the pitch and the window cap
// from the grid every party computes.
func parityJobs() []Job {
	rng := rand.New(rand.NewSource(171))

	n := 300
	p := rng.Perm(n)
	q := append([]int(nil), p...)
	for k := 0; k < 12; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		q[i], q[j] = q[j], q[i]
	}

	a := make([]byte, 240)
	for i := range a {
		a[i] = byte('a' + rng.Intn(4))
	}
	b := append([]byte(nil), a...)
	for k := 0; k < 10; k++ {
		b[rng.Intn(len(b))] = byte('a' + rng.Intn(4))
	}

	far, farBar := workload.DNA(rng, 64), workload.RandomString(rng, 64, 26)

	return []Job{
		{Algo: AlgoUlamMPC, Seed: 7, X: 0.3, P: p, Q: q},
		{Algo: AlgoEditMPC, Seed: 7, X: 0.25, S: a, T: b},
		{Algo: AlgoEditHSS, Seed: 7, X: 0.3, S: a, T: b},
		{Algo: AlgoEditMPC, Seed: 7, X: 0.25, S: far, T: farBar},
		{Algo: AlgoLCSMPC, Seed: 7, X: 0.3, S: a, T: b},
	}
}

// farJob is parityJobs' far edit-distance job, the one that reaches the
// large regime.
func farJob() Job { return parityJobs()[3] }

// withFaults returns the job with a fixed injected-fault schedule. The
// rates match the root chaos suite's ranges; recovery is exact, so the
// distributed run must still be bit-identical to the local one —
// including the Failures/Retries bookkeeping, which counts injected
// faults only (transport-level recovery never touches it).
func withFaults(j Job) Job {
	j.Faults = &fault.Plan{Seed: 99, Crash: 0.02, CrashAfter: 0.05, Straggle: 0.01, Delay: 100 * time.Microsecond}
	return j
}

// normalize zeroes the wall-clock fields so two executions compare on
// model quantities alone. Unlike the chaos suite's stripFaultCounters,
// the injected-fault counters are NOT zeroed: they are deterministic and
// must match across transports exactly.
func normalize(res core.Result) core.Result {
	zeroRep := func(r *core.Result) {
		for gi := -1; gi < len(r.GuessReports); gi++ {
			rep := &r.Report
			if gi >= 0 {
				rep = &r.GuessReports[gi]
			}
			for i := range rep.Rounds {
				rep.Rounds[i].Elapsed = 0
				rep.Rounds[i].QueueWait = 0
				rep.Rounds[i].Skew = trace.SkewStats{}
			}
			rep.Elapsed = 0
			rep.QueueWait = 0
			rep.MaxStraggler = 0
			// Per-worker rows exist only on multi-party runs (and carry
			// wall-clock fields); the deterministic comparison ignores them.
			rep.Workers = nil
		}
	}
	zeroRep(&res)
	return res
}

func runLocal(j Job) (core.Result, error) {
	return j.Run(core.Params{}, nil)
}

func checkParity(t *testing.T, name string, local core.Result, lerr error, distr core.Result, derr error) {
	t.Helper()
	if (lerr == nil) != (derr == nil) || (lerr != nil && lerr.Error() != derr.Error()) {
		t.Fatalf("%s: error mismatch: local %v, distributed %v", name, lerr, derr)
	}
	if lerr != nil {
		return
	}
	ln, dn := normalize(local), normalize(distr)
	if !reflect.DeepEqual(ln, dn) {
		t.Errorf("%s: distributed result differs from local:\nlocal:       %+v\ndistributed: %+v", name, ln, dn)
	}
}

// TestTCPParity is the subsystem's non-negotiable invariant: for every
// MPC pipeline, with and without injected faults, the distance, the
// chain, and every deterministic model counter must be bit-identical
// between the in-process transport and a real TCP session — one session,
// reused across all ten jobs.
func TestTCPParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	sess, err := NewSession(SessionOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, base := range parityJobs() {
		for _, faulted := range []bool{false, true} {
			job := base
			name := job.Algo
			if faulted {
				job = withFaults(job)
				name += "/faults"
			}
			local, lerr := runLocal(job)
			distr, derr := sess.Run(job)
			checkParity(t, name, local, lerr, distr, derr)
		}
	}
	if st := sess.Stats(); st.Exchanges == 0 || st.BytesOut == 0 {
		t.Errorf("session stats show no traffic: %+v", sess.Stats())
	}
	if sess.Alive() != 3 {
		t.Errorf("lost %d workers during fault-free parity run", 3-sess.Alive())
	}
}

// TestTCPParityDeterministicFailure checks that a deterministically
// failing job (crash budget exhausted by a certain-crash plan) fails
// identically everywhere: the coordinator and every worker land on the
// same error, so the digest cross-check passes and the session reports
// the local error verbatim.
func TestTCPParityDeterministicFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := parityJobs()[0]
	job.Faults = &fault.Plan{Crash: 1, MaxRetries: 2}
	local, lerr := runLocal(job)
	if lerr == nil {
		t.Fatal("certain-crash job succeeded locally; want deterministic failure")
	}
	sess, err := NewSession(SessionOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	distr, derr := sess.Run(job)
	checkParity(t, "ulam-mpc/crash-exhaustion", local, lerr, distr, derr)
}

// TestWorkerCrashRecovery kills worker party 2 mid-round: at the start of
// its first exchange, after executing its share of the candidates round
// but before the records ship, so its work is lost with the process. The
// session must detect the loss, reassign the dead worker's machines to
// the surviving worker, and still produce the bit-identical result. It
// then reuses the crippled session for a second job, exercising the
// round-start orphan reassignment path.
func TestWorkerCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := parityJobs()[0]
	local, lerr := runLocal(job)
	sess, err := NewSession(SessionOptions{
		Workers:   2,
		Stderr:    io.Discard,
		WorkerEnv: []string{EnvWorkerDieSeq + "=1", EnvWorkerDieParty + "=2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	distr, derr := sess.Run(job)
	checkParity(t, "ulam-mpc/worker-kill", local, lerr, distr, derr)
	if got := sess.Alive(); got != 1 {
		t.Errorf("after killing 1 of 2 workers, Alive() = %d, want 1", got)
	}
	st := sess.Stats()
	if st.PeersLost != 1 {
		t.Errorf("PeersLost = %d, want 1", st.PeersLost)
	}
	if st.Reassigns == 0 {
		t.Error("worker died mid-round but no reassignment was recorded")
	}

	distr2, derr2 := sess.Run(job)
	checkParity(t, "ulam-mpc/after-worker-loss", local, lerr, distr2, derr2)
}

// TestAllWorkersCrashRecovery arms the die knob on every worker: by the
// second exchange the coordinator is alone and must fall back to local
// replay for the whole round, still matching the local result exactly.
func TestAllWorkersCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := parityJobs()[0]
	local, lerr := runLocal(job)
	sess, err := NewSession(SessionOptions{
		Workers:   2,
		Stderr:    io.Discard,
		WorkerEnv: []string{EnvWorkerDieSeq + "=2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	distr, derr := sess.Run(job)
	checkParity(t, "ulam-mpc/all-workers-killed", local, lerr, distr, derr)
	if got := sess.Alive(); got != 0 {
		t.Errorf("Alive() = %d, want 0", got)
	}
}

// TestNetChaosRejoinParity is the self-healing invariant from the other
// direction: instead of killing workers, it degrades the wire. Every
// coordinator-side link runs under a seeded netchaos schedule (bit
// corruption both ways, truncated writes, mid-stream resets) AND worker
// party 2 deterministically severs its own connection at exchange 2 — and
// with a rejoin grace in force, all three pipelines must still be
// bit-identical to local runs with NO peer ever evicted and NO machine
// ever reassigned: every failure heals through reconnect + resume, not
// through the (result-preserving but work-wasting) replay paths.
func TestNetChaosRejoinParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	sess, err := NewSession(SessionOptions{
		Workers: 2,
		Stderr:  io.Discard,
		NetChaos: &netchaos.Plan{
			Seed:    11,
			Corrupt: 0.003,
			Drop:    0.002,
			Reset:   0.001,
		},
		Transport: transport.Options{
			RejoinGrace: 5 * time.Second,
			// The test asserts PeersLost == 0, so the corrupt-burst
			// eviction threshold must be out of reach for any schedule.
			CorruptTolerance: 1 << 20,
		},
		WorkerEnv: []string{
			EnvWorkerDropConnSeq + "=2",
			EnvWorkerDropConnParty + "=2",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, job := range parityJobs() {
		local, lerr := runLocal(job)
		distr, derr := sess.Run(job)
		checkParity(t, job.Algo+"/netchaos", local, lerr, distr, derr)
	}
	st := sess.Stats()
	if st.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (the drop-conn knob alone guarantees one)", st.Reconnects)
	}
	if st.PeersLost != 0 {
		t.Errorf("PeersLost = %d, want 0: every link failure should heal within the grace", st.PeersLost)
	}
	if st.Reassigns != 0 {
		t.Errorf("Reassigns = %d, want 0: rejoin must resume the slot, not fall back to replay", st.Reassigns)
	}
	if got := sess.Alive(); got != 2 {
		t.Errorf("Alive() = %d, want 2", got)
	}
}

// TestSoakSmoke runs a short version of the `mpcdist -soak` loop: a few
// fresh sessions under rotating chaos seeds, each checked bit-for-bit
// against the fault-free local digest.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	err := Soak(parityJobs()[0], SoakOptions{
		Session:    SessionOptions{Workers: 2},
		Iterations: 2,
		Log:        testWriter{t},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testWriter adapts t.Logf so soak progress lands in the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestJobRoundTrip pushes a fully-populated job, its fault plan's retry
// budget included, through the session codec path used at job start.
func TestJobRoundTrip(t *testing.T) {
	job := withFaults(parityJobs()[1])
	job.Eps = 0.25
	job.MemFactor = 8
	job.Faults.MaxRetries = 5
	c := transport.NewCodec()
	buf, err := encodeValue(c, job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJob(c, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, job) {
		t.Fatalf("job round-trip mismatch:\nin:  %+v\nout: %+v", job, got)
	}
}

// TestSpecDigestFaults checks the job's identity depends on the fault plan
// only when the plan injects something: a nil plan, an inactive plan and
// a fault-free job with a retry budget are one job, while two active plans
// that differ only in their retry budget are two.
func TestSpecDigestFaults(t *testing.T) {
	digest := func(j Job) string {
		t.Helper()
		d, err := j.SpecDigest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	job := parityJobs()[0]
	base := digest(job)
	inactive := job
	inactive.Faults = &fault.Plan{Seed: 3}
	budgetOnly := FromParams(job.Algo, core.Params{X: job.X, Seed: job.Seed, Faults: &fault.Plan{MaxRetries: 5}})
	budgetOnly.P, budgetOnly.Q = job.P, job.Q
	if budgetOnly.Faults != nil {
		t.Errorf("FromParams kept an inactive plan: %+v", budgetOnly.Faults)
	}
	for name, j := range map[string]Job{"inactive plan": inactive, "fault-free job with MaxRetries 5": budgetOnly} {
		if d := digest(j); d != base {
			t.Errorf("%s: digest %s, want the nil plan's %s", name, d, base)
		}
	}

	a, b := job, job
	a.Faults = &fault.Plan{Seed: 1, Crash: 0.05, MaxRetries: 5}
	b.Faults = &fault.Plan{Seed: 1, Crash: 0.05, MaxRetries: 6}
	if digest(a) == digest(b) {
		t.Error("active plans differing only in MaxRetries share a digest")
	}
	if digest(a) == base {
		t.Error("an active plan does not change the digest")
	}
}
