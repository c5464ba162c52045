package core

import (
	"math/rand"
	"testing"

	"mpcdist/internal/editdist"
	"mpcdist/internal/workload"
)

func TestEditMPCValidation(t *testing.T) {
	if _, err := EditMPC([]byte("ab"), []byte("cd"), Params{X: 0.4}); err == nil {
		t.Error("X > 5/17 accepted")
	}
	if _, err := EditMPC([]byte("ab"), []byte("cd"), Params{X: 0}); err == nil {
		t.Error("X = 0 accepted")
	}
}

func TestEditMPCEqualAndEmpty(t *testing.T) {
	res, err := EditMPC([]byte("hello"), []byte("hello"), Params{X: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || res.Regime != "equal" {
		t.Errorf("equal strings: %+v", res)
	}
	res, err = EditMPC(nil, nil, Params{X: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("empty strings: %+v", res)
	}
}

func editFactor(t *testing.T, s, sbar []byte, p Params) (float64, Result) {
	t.Helper()
	res, err := EditMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	exact := editdist.Distance(s, sbar, nil)
	if res.Value < exact {
		t.Fatalf("MPC value %d below exact %d", res.Value, exact)
	}
	if exact == 0 {
		return 1, res
	}
	return float64(res.Value) / float64(exact), res
}

func TestEditMPCSmallDistancePlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	p := Params{X: 0.25, Eps: 0.5, Seed: 1}
	for trial := 0; trial < 3; trial++ {
		n := 600 + rng.Intn(400)
		s := workload.RandomString(rng, n, 4)
		sbar := workload.PlantedEdits(rng, s, 5+rng.Intn(40), 4)
		f, res := editFactor(t, s, sbar, p)
		if f > 1+p.Eps {
			t.Errorf("factor %.3f > %.3f (n=%d)", f, 1+p.Eps, n)
		}
		if res.Regime != "small" {
			t.Errorf("expected small regime, got %q (guess %d)", res.Regime, res.Guess)
		}
		if res.Report.NumRounds != 2 {
			t.Errorf("small regime rounds = %d, want 2", res.Report.NumRounds)
		}
	}
}

func TestEditMPCExactPairsIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	p := Params{X: 0.25, Eps: 0.5, Seed: 2}
	for trial := 0; trial < 3; trial++ {
		n := 500 + rng.Intn(300)
		s := workload.RandomString(rng, n, 4)
		sbar := workload.PlantedEdits(rng, s, 5+rng.Intn(30), 4)
		f, _ := editFactor(t, s, sbar, p)
		if f > 1+p.Eps {
			t.Errorf("factor %.3f > %.3f with exact pair distances", f, 1+p.Eps)
		}
	}
}

func TestEditMPCShift(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	s := workload.RandomString(rng, 700, 6)
	p := Params{X: 0.25, Eps: 0.5, Seed: 3}
	for _, k := range []int{2, 11} {
		sbar := workload.Shift(s, k)
		f, _ := editFactor(t, s, sbar, p)
		if f > 3.5 {
			t.Errorf("shift %d: factor %.3f", k, f)
		}
	}
}

func TestEditMPCFarStringsLargeRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p := Params{X: 0.25, Eps: 1, Seed: 4}
	n := 400
	s := workload.RandomString(rng, n, 12)
	sbar := workload.RandomString(rng, n, 12)
	f, res := editFactor(t, s, sbar, p)
	if f > 3+2*p.Eps {
		t.Errorf("far strings: factor %.3f > %.3f", f, 3+2*p.Eps)
	}
	if res.Report.NumRounds > 4 {
		t.Errorf("rounds = %d, want <= 4", res.Report.NumRounds)
	}
	t.Logf("far: value=%d regime=%s guess=%d rounds=%d machines=%d",
		res.Value, res.Regime, res.Guess, res.Report.NumRounds, res.Report.MaxMachines)
}

func TestEditLargeMPCDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	n := 300
	s := workload.RandomString(rng, n, 10)
	sbar := workload.RandomString(rng, n, 10)
	exact := editdist.Distance(s, sbar, nil)
	res, err := EditLargeMPC(s, sbar, max(exact, 1), Params{X: 0.25, Eps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < exact {
		t.Fatalf("large value %d below exact %d", res.Value, exact)
	}
	if float64(res.Value) > 4*float64(exact)+1 {
		t.Errorf("large regime value %d vs exact %d exceeds factor 4", res.Value, exact)
	}
	if res.Report.NumRounds != 4 {
		t.Errorf("large regime rounds = %d, want 4", res.Report.NumRounds)
	}
}

func TestEditSmallMPCDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	s := workload.RandomString(rng, 500, 4)
	sbar := workload.PlantedEdits(rng, s, 25, 4)
	exact := editdist.Distance(s, sbar, nil)
	res, err := EditSmallMPC(s, sbar, max(2*exact, 4), Params{X: 0.25, Eps: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < exact {
		t.Fatalf("small value %d below exact %d", res.Value, exact)
	}
	if res.Report.NumRounds != 2 {
		t.Errorf("small regime rounds = %d, want 2", res.Report.NumRounds)
	}
}

func TestEditMPCDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	s := workload.RandomString(rng, 400, 4)
	sbar := workload.PlantedEdits(rng, s, 20, 4)
	p := Params{X: 0.25, Eps: 0.5, Seed: 7}
	r1, err := EditMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EditMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value || r1.Report.TotalOps != r2.Report.TotalOps {
		t.Errorf("nondeterministic: %d/%d vs %d/%d",
			r1.Value, r1.Report.TotalOps, r2.Value, r2.Report.TotalOps)
	}
}

func TestEditMPCDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	s := workload.DNA(rng, 800)
	sbar := workload.PlantedDNA(rng, s, 30)
	f, _ := editFactor(t, s, sbar, Params{X: 0.2, Eps: 0.5, Seed: 8})
	if f > 3.5 {
		t.Errorf("DNA factor %.3f", f)
	}
}

// TestTheorem9EndToEnd is the named umbrella for the paper's main edit
// distance claim: factor within 3+eps (1+eps with exact pairs), at most 4
// rounds per guess, memory cap respected, on a mix of workloads.
func TestTheorem9EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	p := Params{X: 0.25, Eps: 0.5, Seed: 9}.WithDefaults()
	budget := p.MemoryBudget(900)
	for trial, mk := range []func() ([]byte, []byte){
		func() ([]byte, []byte) {
			s := workload.RandomString(rng, 900, 4)
			return s, workload.PlantedEdits(rng, s, 45, 4)
		},
		func() ([]byte, []byte) {
			s := workload.DNA(rng, 900)
			return s, workload.PlantedDNA(rng, s, 30)
		},
		func() ([]byte, []byte) {
			s := workload.RandomString(rng, 900, 6)
			return s, workload.Shift(s, 17)
		},
	} {
		s, sbar := mk()
		res, err := EditMPC(s, sbar, p)
		if err != nil {
			t.Fatalf("workload %d: %v", trial, err)
		}
		exact := editdist.Myers(s, sbar, nil)
		if res.Value < exact {
			t.Fatalf("workload %d: value %d below exact %d", trial, res.Value, exact)
		}
		if exact > 0 && float64(res.Value) > (3+p.Eps)*float64(exact) {
			t.Errorf("workload %d: factor %.3f", trial, float64(res.Value)/float64(exact))
		}
		if res.Report.NumRounds > 4 {
			t.Errorf("workload %d: rounds %d > 4", trial, res.Report.NumRounds)
		}
		if res.Report.MaxWords > budget {
			t.Errorf("workload %d: memory %d > budget %d", trial, res.Report.MaxWords, budget)
		}
	}
}

// TestEditLargeRoundNames pins the four-round structure of Lemma 8.
func TestEditLargeRoundNames(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	s := workload.RandomString(rng, 300, 10)
	sbar := workload.RandomString(rng, 300, 10)
	res, err := EditLargeMPC(s, sbar, 256, Params{X: 0.25, Eps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"edit-large/reps", "edit-large/join", "edit-large/extend", "edit-large/chain"}
	if len(res.Report.Rounds) != len(want) {
		t.Fatalf("rounds = %d, want 4", len(res.Report.Rounds))
	}
	for i, r := range res.Report.Rounds {
		if r.Name != want[i] {
			t.Errorf("round %d = %q, want %q", i, r.Name, want[i])
		}
	}
}
