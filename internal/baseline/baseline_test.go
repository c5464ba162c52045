package baseline

import (
	"math/rand"
	"testing"

	"mpcdist/internal/core"
	"mpcdist/internal/editdist"
	"mpcdist/internal/lcs"
	"mpcdist/internal/workload"
)

func TestHSSValidation(t *testing.T) {
	if _, err := HSSEditMPC([]byte("ab"), []byte("cd"), core.Params{X: 0.6}); err == nil {
		t.Error("X >= 1/2 accepted")
	}
}

func TestHSSEqual(t *testing.T) {
	res, err := HSSEditMPC([]byte("same"), []byte("same"), core.Params{X: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("equal: %d", res.Value)
	}
}

func TestHSSApproxFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	p := core.Params{X: 0.25, Eps: 0.5, Seed: 1}
	for trial := 0; trial < 3; trial++ {
		n := 500 + rng.Intn(300)
		s := workload.RandomString(rng, n, 4)
		sbar := workload.PlantedEdits(rng, s, 5+rng.Intn(40), 4)
		res, err := HSSEditMPC(s, sbar, p)
		if err != nil {
			t.Fatal(err)
		}
		exact := editdist.Distance(s, sbar, nil)
		if res.Value < exact {
			t.Fatalf("HSS value %d below exact %d", res.Value, exact)
		}
		if float64(res.Value) > (1+p.Eps)*float64(exact)+1 {
			t.Errorf("HSS factor %d/%d exceeds 1+eps", res.Value, exact)
		}
		if res.Report.NumRounds != 2 {
			t.Errorf("rounds = %d, want 2", res.Report.NumRounds)
		}
	}
}

func TestHSSUsesMoreMachinesThanOurs(t *testing.T) {
	// The paper's improvement: at the same memory cap, [20] needs one
	// machine per (block, start) pair, ours packs n^{1-delta} of them.
	rng := rand.New(rand.NewSource(92))
	n := 900
	s := workload.RandomString(rng, n, 4)
	sbar := workload.PlantedEdits(rng, s, 25, 4)
	p := core.Params{X: 0.25, Eps: 0.5, Seed: 2}

	hss, err := HSSEditMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := core.EditMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	if hss.Report.MaxMachines <= ours.Report.MaxMachines {
		t.Errorf("expected HSS machines (%d) > ours (%d)",
			hss.Report.MaxMachines, ours.Report.MaxMachines)
	}
	t.Logf("machines: HSS=%d ours=%d (ratio %.2f)", hss.Report.MaxMachines,
		ours.Report.MaxMachines, float64(hss.Report.MaxMachines)/float64(ours.Report.MaxMachines))
}

func TestHSSFarStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	n := 300
	s := workload.RandomString(rng, n, 10)
	sbar := workload.RandomString(rng, n, 10)
	res, err := HSSEditMPC(s, sbar, core.Params{X: 0.25, Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact := editdist.Distance(s, sbar, nil)
	if res.Value < exact || float64(res.Value) > 1.5*float64(exact)+1 {
		t.Errorf("far: value %d, exact %d", res.Value, exact)
	}
}

func TestLCSMPCLowerBoundAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 3; trial++ {
		n := 400 + rng.Intn(200)
		s := workload.RandomString(rng, n, 4)
		sbar := workload.PlantedEdits(rng, s, 20, 4) // similar strings: LCS ~ n
		res, err := LCSMPC(s, sbar, core.Params{X: 0.25, Eps: 0.5, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		exact := lcs.Length(s, sbar, nil)
		if res.Value > exact {
			t.Fatalf("LCSMPC value %d exceeds true LCS %d", res.Value, exact)
		}
		if float64(res.Value) < float64(exact)/(1.0+2*0.5) {
			t.Errorf("LCSMPC value %d too far below LCS %d", res.Value, exact)
		}
		if res.Report.NumRounds != 2 {
			t.Errorf("rounds = %d, want 2", res.Report.NumRounds)
		}
	}
}

func TestLCSMPCEqualAndDisjoint(t *testing.T) {
	res, err := LCSMPC([]byte("samesame"), []byte("samesame"), core.Params{X: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 8 {
		t.Errorf("equal strings LCS = %d, want 8", res.Value)
	}
	res, err = LCSMPC([]byte("aaaa"), []byte("bbbb"), core.Params{X: 0.25, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("disjoint strings LCS = %d, want 0", res.Value)
	}
	if _, err := LCSMPC([]byte("x"), []byte("y"), core.Params{X: 0.9}); err == nil {
		t.Error("X >= 1/2 accepted")
	}
}
