package mpcdist

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"mpcdist/internal/fault"
	"mpcdist/internal/trace"
	"mpcdist/internal/workload"
)

// The chaos suite runs the full Table 1 pipelines — both paper algorithms
// (Ulam Theorem 4, edit distance Theorem 9, on a near pair and a far one)
// and the [20] HSS baseline — under randomized fault schedules and asserts
// the paper's recovery claim: because every machine round is a pure
// function of (seed, round, machine, inputs), crash replay reconstructs
// the fault-free execution exactly.
// Distances, chains, and every deterministic
// model counter must be bit-identical to the fault-free run; only the
// Failures/Retries bookkeeping may differ.
//
// Environment knobs (both optional, used by the CI chaos-smoke job):
//
//	CHAOS_SEED       base seed for the randomized schedules (default 1)
//	CHAOS_TRACE_OUT  write a Chrome trace with the injected fault events
//	                 of one representative faulted run to this file
const chaosSchedulesPerAlgo = 7 // x4 pipelines >= 20 randomized schedules

// chaosAlgo is one full pipeline under test, closed over a fixed input.
type chaosAlgo struct {
	name string
	run  func(p MPCParams) (MPCResult, error)
}

// chaosInputs builds deterministic inputs and the four pipelines.
func chaosInputs() []chaosAlgo {
	rng := rand.New(rand.NewSource(171))

	// Ulam: permutation pair with scattered moves.
	n := 400
	s := rng.Perm(n)
	sbar := append([]int(nil), s...)
	for k := 0; k < 16; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		sbar[i], sbar[j] = sbar[j], sbar[i]
	}

	// Edit distance: byte pair with substitutions, which the small regime
	// accepts (Lemma 6's two rounds per guess).
	a := make([]byte, 260)
	for i := range a {
		a[i] = byte('a' + rng.Intn(4))
	}
	b := append([]byte(nil), a...)
	for k := 0; k < 12; k++ {
		b[rng.Intn(len(b))] = byte('a' + rng.Intn(4))
	}

	// A far pair, DNA against a disjoint alphabet (ed = n = 64): it fails
	// the small regime's last guess, 39, and accepts at the large guess 58,
	// so Lemma 8's four rounds run under the faults too.
	far, farBar := workload.DNA(rng, 64), workload.RandomString(rng, 64, 26)

	return []chaosAlgo{
		{"ulam-mpc", func(p MPCParams) (MPCResult, error) {
			p.X = 0.3
			return UlamDistanceMPC(s, sbar, p)
		}},
		{"edit-mpc", func(p MPCParams) (MPCResult, error) {
			p.X = 0.25
			return EditDistanceMPC(a, b, p)
		}},
		{"edit-hss", func(p MPCParams) (MPCResult, error) {
			p.X = 0.3
			return EditDistanceHSS(a, b, p)
		}},
		{"edit-mpc-far", func(p MPCParams) (MPCResult, error) {
			p.X = 0.25
			return EditDistanceMPC(far, farBar, p)
		}},
	}
}

// chaosPlan derives a randomized fault schedule from one schedule seed.
// Rates are kept low enough that its retry budget of 12 makes exhaustion
// (rate^13 per coordinate) negligible while still injecting plenty of
// events across the pipelines' rounds.
func chaosPlan(rng *rand.Rand) *fault.Plan {
	return &fault.Plan{
		Seed:       rng.Int63(),
		Crash:      0.005 + 0.025*rng.Float64(),
		CrashAfter: 0.015 + 0.065*rng.Float64(),
		Straggle:   0.01 * rng.Float64(),
		Delay:      100_000, // 100µs: visible in traces, cheap in tests
		MaxRetries: 12,
	}
}

// stripFaultCounters normalizes wall-clock fields and zeroes the fault
// bookkeeping so a recovered run can be compared bit-for-bit against the
// fault-free execution.
func stripFaultCounters(res MPCResult) MPCResult {
	res = normalizeResult(res)
	strip := func(r Report) Report {
		for i := range r.Rounds {
			r.Rounds[i].Failures = 0
			r.Rounds[i].Retries = 0
		}
		r.Failures = 0
		r.Retries = 0
		return r
	}
	res.Report = strip(res.Report)
	for i := range res.GuessReports {
		res.GuessReports[i] = strip(res.GuessReports[i])
	}
	return res
}

func chaosBaseSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 1
	}
	v, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer: %v", env, err)
	}
	return v
}

// TestChaosRecoveryBitIdentical is the acceptance gate for the fault
// layer: >= 20 randomized schedules across the four pipelines, every one
// recovering to the exact fault-free answer, with retries observed overall
// (a chaos run that injects nothing proves nothing).
func TestChaosRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs full pipelines; skipped in -short")
	}
	base := chaosBaseSeed(t)
	algos := chaosInputs()

	var totalFailures, totalRetries int
	for _, alg := range algos {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			ref, err := alg.run(MPCParams{Eps: 0.5, Seed: 7})
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if ref.Report.Failures != 0 || ref.Report.Retries != 0 {
				t.Fatalf("fault-free run reported failures=%d retries=%d",
					ref.Report.Failures, ref.Report.Retries)
			}
			want := stripFaultCounters(ref)

			for i := 0; i < chaosSchedulesPerAlgo; i++ {
				rng := rand.New(rand.NewSource(base + int64(i)))
				plan := chaosPlan(rng)
				got, err := alg.run(MPCParams{Eps: 0.5, Seed: 7, Faults: plan})
				if err != nil {
					t.Fatalf("schedule %d (%s): %v", i, plan, err)
				}
				if got.Value != ref.Value {
					t.Fatalf("schedule %d (%s): distance %d != fault-free %d",
						i, plan, got.Value, ref.Value)
				}
				totalFailures += got.Report.Failures
				totalRetries += got.Report.Retries
				if norm := stripFaultCounters(got); !reflect.DeepEqual(norm, want) {
					t.Fatalf("schedule %d (%s): recovered run drifted from fault-free execution\n got: %+v\nwant: %+v",
						i, plan, norm, want)
				}
			}
		})
	}
	if totalFailures == 0 || totalRetries == 0 {
		t.Fatalf("chaos suite observed failures=%d retries=%d; schedules injected nothing",
			totalFailures, totalRetries)
	}
	t.Logf("chaos: %d schedules, %d injected faults, %d recovery actions, all runs bit-identical",
		len(algos)*chaosSchedulesPerAlgo, totalFailures, totalRetries)
}

// TestChaosTraceArtifact writes a Chrome trace of one representative
// faulted Ulam run when CHAOS_TRACE_OUT is set (the CI artifact), and
// sanity-checks that fault events reach the event log either way.
func TestChaosTraceArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs full pipelines; skipped in -short")
	}
	rng := rand.New(rand.NewSource(chaosBaseSeed(t)))
	plan := chaosPlan(rng)
	log := trace.NewLog()
	log.Keep()
	alg := chaosInputs()[0]
	res, err := alg.run(MPCParams{Eps: 0.5, Seed: 7, Faults: plan, Observer: log})
	if err != nil {
		t.Fatalf("traced chaos run (%s): %v", plan, err)
	}
	if res.Report.Failures > 0 && log.Stats().Faults == 0 {
		t.Fatalf("report counted %d failures but the log recorded no fault events", res.Report.Failures)
	}
	ct := log.Trace()
	out := os.Getenv("CHAOS_TRACE_OUT")
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatalf("CHAOS_TRACE_OUT: %v", err)
	}
	defer f.Close()
	if _, err := ct.WriteTo(f); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Logf("chaos: wrote fault-event trace (%d events, failures=%d retries=%d) to %s",
		ct.Events(), res.Report.Failures, res.Report.Retries, out)
}
