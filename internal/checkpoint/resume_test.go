// Checkpoint chaos suite: interrupt a run mid-job (the checkpointer
// "crashes" after persisting a prefix), resume it from the store, and
// require the resumed run to be bit-identical to an uninterrupted one —
// for every MPC pipeline, with and without injected faults. This is the
// subsystem's core guarantee: round boundaries are complete recovery
// points, so fast-forwarding a durable prefix can never perturb the
// distance or any deterministic counter.
package checkpoint_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mpcdist/internal/baseline"
	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/fault"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// resumeCase is one pipeline over deterministic inputs sized so every
// phase runs but the suite stays test-budget fast.
type resumeCase struct {
	name string
	run  func(p core.Params) (core.Result, error)
}

func resumeCases() []resumeCase {
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

	return []resumeCase{
		{"ulam-mpc", func(pr core.Params) (core.Result, error) {
			pr.X = 0.3
			return core.UlamMPC(p, q, pr)
		}},
		{"edit-mpc", func(pr core.Params) (core.Result, error) {
			pr.X = 0.25
			return core.EditMPC(a, b, pr)
		}},
		{"edit-hss", func(pr core.Params) (core.Result, error) {
			pr.X = 0.3
			return baseline.HSSEditMPC(a, b, pr)
		}},
	}
}

func testFaults() *fault.Plan {
	return &fault.Plan{Seed: 99, Crash: 0.02, CrashAfter: 0.05}
}

// normalize zeroes the wall-clock fields so two executions compare on
// model quantities alone: a resumed run restores snapshot wall times
// verbatim while a fresh run measures its own, and both are advisory.
// Injected-fault counters are NOT zeroed — a resumed faulted run must
// reproduce the live suffix's schedule exactly (fast-forwarded rounds
// re-inject nothing, and their counters ride in the snapshot stats).
func normalize(res core.Result) core.Result {
	for gi := -1; gi < len(res.GuessReports); gi++ {
		rep := &res.Report
		if gi >= 0 {
			rep = &res.GuessReports[gi]
		}
		for i := range rep.Rounds {
			rep.Rounds[i].Elapsed = 0
			rep.Rounds[i].QueueWait = 0
			rep.Rounds[i].Skew = trace.SkewStats{}
		}
		rep.Elapsed = 0
		rep.QueueWait = 0
		rep.MaxStraggler = 0
		rep.Workers = nil
	}
	return res
}

// errInterrupt simulates the coordinator dying between rounds: the
// checkpointer refuses the next Save, aborting the cluster the way a
// SIGKILL would, but with the durable prefix already on disk.
var errInterrupt = errors.New("checkpoint_test: simulated crash")

// crashingSaver passes Save through to the real Saver for the first
// `budget` steps, then fails every call.
type crashingSaver struct {
	inner  *checkpoint.Saver
	budget int
}

func (c *crashingSaver) Resume(round int, name string, phase trace.Phase, inputs map[int][]mpc.Payload) (*mpc.RoundSnapshot, error) {
	return c.inner.Resume(round, name, phase, inputs)
}

func (c *crashingSaver) Save(snap *mpc.RoundSnapshot) error {
	if c.budget <= 0 {
		return errInterrupt
	}
	c.budget--
	return c.inner.Save(snap)
}

// TestInterruptResumeParity is the tentpole invariant: for every MPC
// pipeline, faulted and fault-free, a run killed after one completed round
// and resumed from the store produces the bit-identical distance and
// deterministic counters of an uninterrupted run — with at least one round
// genuinely fast-forwarded, not recomputed.
func TestInterruptResumeParity(t *testing.T) {
	for _, tc := range resumeCases() {
		for _, faulted := range []bool{false, true} {
			name := tc.name
			if faulted {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				params := core.Params{Seed: 7}
				if faulted {
					params.Faults = testFaults()
				}

				// Baseline: the uninterrupted run.
				want, err := tc.run(params)
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}

				store, err := checkpoint.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				// First attempt: persist one round, then "crash" (ulam-mpc has
				// only two rounds total, so the budget must stay below that).
				saver, err := checkpoint.NewSaver(store, "job", tc.name, checkpoint.SaverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				p1 := params
				p1.Checkpointer = &crashingSaver{inner: saver, budget: 1}
				if _, err := tc.run(p1); !errors.Is(err, errInterrupt) {
					t.Fatalf("interrupted run: err = %v, want errInterrupt", err)
				}
				saves, _, _ := saver.Counters()
				if saves != 1 {
					t.Fatalf("interrupted run persisted %d steps, want 1", saves)
				}

				// Second attempt: resume from the store and finish.
				resumer, err := checkpoint.NewSaver(store, "job", tc.name, checkpoint.SaverOptions{Resume: true})
				if err != nil {
					t.Fatal(err)
				}
				p2 := params
				p2.Checkpointer = resumer
				got, err := tc.run(p2)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if err := resumer.Flush(); err != nil {
					t.Fatal(err)
				}
				_, resumed, _ := resumer.Counters()
				if resumed != 1 {
					t.Errorf("resumed run fast-forwarded %d steps, want 1", resumed)
				}

				wn, gn := normalize(want), normalize(got)
				if !reflect.DeepEqual(wn, gn) {
					t.Errorf("resumed result differs from uninterrupted:\nwant: %+v\ngot:  %+v", wn, gn)
				}

				// Third attempt over the now-complete checkpoint: the whole
				// job fast-forwards, still bit-identical.
				full, err := checkpoint.NewSaver(store, "job", tc.name, checkpoint.SaverOptions{Resume: true})
				if err != nil {
					t.Fatal(err)
				}
				p3 := params
				p3.Checkpointer = full
				got3, err := tc.run(p3)
				if err != nil {
					t.Fatalf("fully resumed run: %v", err)
				}
				saves3, resumed3, _ := full.Counters()
				if saves3 != 0 || resumed3 == 0 {
					t.Errorf("full resume: %d saves, %d resumed; want 0 saves, all resumed", saves3, resumed3)
				}
				// The fully fast-forwarded run restores snapshot wall times
				// verbatim, so even the un-normalized reports match the
				// resumed run's durable steps — but compare normalized for
				// symmetry with the other checks.
				if g3 := normalize(got3); !reflect.DeepEqual(wn, g3) {
					t.Errorf("fully resumed result differs:\nwant: %+v\ngot:  %+v", wn, g3)
				}

				// The store itself must verify clean after all this.
				if warnings, err := store.Verify(""); err != nil || len(warnings) != 0 {
					t.Errorf("store verify after resume: %v, %v", warnings, err)
				}
			})
		}
	}
}

// TestResumeDivergentPipelineRefused pins the runtime safety rail: a
// checkpoint whose stored round structure does not match the live
// execution (here: an ulam-mpc prefix replayed under an edit pipeline
// that was mislabeled with the same algo string, so the construction-time
// algo check cannot catch it) must fail with a DivergenceError at the
// first fast-forward, not feed foreign records into the run. Spec-level
// divergence (different seed or input, same structure) is prevented one
// layer up, by keying manifests on the job-spec digest.
func TestResumeDivergentPipelineRefused(t *testing.T) {
	cases := resumeCases()
	ulam, edit := cases[0], cases[2] // edit-hss: cheapest edit pipeline

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saver, err := checkpoint.NewSaver(store, "job", "mislabeled", checkpoint.SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Seed: 7, Checkpointer: saver}
	if _, err := ulam.run(params); err != nil {
		t.Fatal(err)
	}
	if err := saver.Flush(); err != nil {
		t.Fatal(err)
	}

	resumer, err := checkpoint.NewSaver(store, "job", "mislabeled", checkpoint.SaverOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	p2 := core.Params{Seed: 7, Checkpointer: resumer}
	_, err = edit.run(p2)
	var de *checkpoint.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("divergent resume: err = %v, want *DivergenceError", err)
	}
}

// TestResumeOtherLayoutRefused writes a store from a round over one input
// layout and resumes it under another with the same round name and phase,
// as a build that lays its machines out differently would: more machines,
// or as many with a larger input. The resume must fail with a
// DivergenceError rather than hand the live run records addressed to
// another layout's machine ids; the same layout still fast-forwards.
func TestResumeOtherLayoutRefused(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(ck mpc.Checkpointer, in map[int][]mpc.Payload) error {
		cl := mpc.NewCluster(mpc.Config{Checkpointer: ck})
		_, err := cl.Run("layout", trace.PhaseCandidates, in, func(x *mpc.Ctx, in []mpc.Payload) {
			x.Send(0, in[0])
		})
		return err
	}
	written := map[int][]mpc.Payload{0: {mpc.Ints{1, 2}}, 1: {mpc.Ints{3, 4}}}
	saver, err := checkpoint.NewSaver(store, "job", "layout", checkpoint.SaverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(saver, written); err != nil {
		t.Fatal(err)
	}
	if err := saver.Flush(); err != nil {
		t.Fatal(err)
	}

	resume := func(in map[int][]mpc.Payload) (int, error) {
		resumer, err := checkpoint.NewSaver(store, "job", "layout", checkpoint.SaverOptions{Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		err = run(resumer, in)
		_, resumed, _ := resumer.Counters()
		return resumed, err
	}
	for name, in := range map[string]map[int][]mpc.Payload{
		"more machines":  {0: {mpc.Ints{1, 2}}, 1: {mpc.Ints{3}}, 2: {mpc.Ints{4}}},
		"a larger input": {0: {mpc.Ints{1, 2, 3}}, 1: {mpc.Ints{4}}},
	} {
		var de *checkpoint.DivergenceError
		if resumed, err := resume(in); !errors.As(err, &de) || resumed != 0 {
			t.Errorf("%s: resumed %d steps, err = %v; want none and a *DivergenceError", name, resumed, err)
		}
	}
	if resumed, err := resume(written); err != nil || resumed != 1 {
		t.Errorf("same layout: resumed %d steps, err = %v; want 1 and no error", resumed, err)
	}
}
