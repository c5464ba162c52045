package core

import (
	"math/rand"
	"testing"

	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

func TestUlamMPCValidation(t *testing.T) {
	if _, err := UlamMPC([]int{1, 1}, []int{1, 2}, Params{X: 0.3}); err == nil {
		t.Error("repeated characters accepted")
	}
	if _, err := UlamMPC([]int{1}, []int{1}, Params{X: 0.6}); err == nil {
		t.Error("X >= 1/2 accepted")
	}
	if _, err := UlamMPC([]int{1}, []int{1}, Params{X: 0}); err == nil {
		t.Error("X = 0 accepted")
	}
}

func TestUlamMPCIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := workload.Permutation(rng, 256)
	res, err := UlamMPC(s, s, Params{X: 0.3, Eps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("UlamMPC(s,s) = %d, want 0", res.Value)
	}
	if res.Report.NumRounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Report.NumRounds)
	}
}

func TestUlamMPCTwoRoundsAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	s, sbar, _ := workload.PlantedUlam(rng, 300, 40)
	res, err := UlamMPC(s, sbar, Params{X: 0.35, Eps: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.NumRounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Report.NumRounds)
	}
	if res.Report.MaxMachines < 2 {
		t.Errorf("machines = %d, want >= 2", res.Report.MaxMachines)
	}
}

// approxFactor runs UlamMPC and returns value/exact.
func ulamFactor(t *testing.T, s, sbar []int, p Params) float64 {
	t.Helper()
	res, err := UlamMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	exact := ulam.Exact(s, sbar, nil)
	if res.Value < exact {
		t.Fatalf("MPC value %d below exact %d (not an upper bound)", res.Value, exact)
	}
	if exact == 0 {
		if res.Value != 0 {
			t.Fatalf("exact 0 but MPC %d", res.Value)
		}
		return 1
	}
	return float64(res.Value) / float64(exact)
}

func TestUlamMPCApproxFactorPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	eps := 1.0
	for trial := 0; trial < 6; trial++ {
		n := 256 + rng.Intn(512)
		d := 1 + rng.Intn(n/4)
		s, sbar, _ := workload.PlantedUlam(rng, n, d)
		f := ulamFactor(t, s, sbar, Params{X: 0.3, Eps: eps, Seed: int64(trial)})
		if f > 1+eps {
			t.Errorf("n=%d d=%d: factor %.3f > 1+eps = %.3f", n, d, f, 1+eps)
		}
	}
}

func TestUlamMPCApproxFactorRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	eps := 1.0
	for trial := 0; trial < 4; trial++ {
		n := 200 + rng.Intn(300)
		s := workload.Permutation(rng, n)
		sbar := workload.Permutation(rng, n)
		f := ulamFactor(t, s, sbar, Params{X: 0.3, Eps: eps, Seed: int64(trial)})
		if f > 1+eps {
			t.Errorf("random perms n=%d: factor %.3f > %.3f", n, f, 1+eps)
		}
	}
}

func TestUlamMPCShiftWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	s := workload.Permutation(rng, 400)
	for _, k := range []int{1, 5, 20} {
		sbar := workload.ShiftInts(s, k)
		f := ulamFactor(t, s, sbar, Params{X: 0.3, Eps: 1, Seed: int64(k)})
		if f > 2 {
			t.Errorf("shift %d: factor %.3f > 2", k, f)
		}
	}
}

func TestUlamMPCDisjointAlphabets(t *testing.T) {
	// No common characters: distance is exactly n (all substitutions).
	n := 200
	s := make([]int, n)
	sbar := make([]int, n)
	for i := range s {
		s[i] = i
		sbar[i] = n + i
	}
	res, err := UlamMPC(s, sbar, Params{X: 0.3, Eps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != n {
		t.Errorf("disjoint alphabets: value %d, want %d", res.Value, n)
	}
}

func TestUlamMPCMemoryRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	s, sbar, _ := workload.PlantedUlam(rng, 512, 60)
	p := Params{X: 0.4, Eps: 1, Seed: 3}.WithDefaults()
	res, err := UlamMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxWords > p.MemoryBudget(512) {
		t.Errorf("memory %d exceeds budget %d", res.Report.MaxWords, p.MemoryBudget(512))
	}
}

func TestUlamMPCDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s, sbar, _ := workload.PlantedUlam(rng, 300, 50)
	p := Params{X: 0.3, Eps: 1, Seed: 5}
	r1, err := UlamMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := UlamMPC(s, sbar, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value || r1.Report.TotalOps != r2.Report.TotalOps {
		t.Errorf("nondeterministic: %v vs %v", r1, r2)
	}
}

func TestUlamMPCEmptySbar(t *testing.T) {
	res, err := UlamMPC([]int{1, 2, 3, 4}, nil, Params{X: 0.3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Errorf("empty sbar: value %d, want 4", res.Value)
	}
}

// TestTheorem4EndToEnd is the named umbrella for the paper's Ulam claim:
// 1+eps whp, exactly two rounds, memory cap respected, across workloads.
func TestTheorem4EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	p := Params{X: 0.3, Eps: 1, Seed: 11}.WithDefaults()
	budget := p.MemoryBudget(600)
	for trial, mk := range []func() ([]int, []int){
		func() ([]int, []int) {
			s, sbar, _ := workload.PlantedUlam(rng, 600, 80)
			return s, sbar
		},
		func() ([]int, []int) {
			s := workload.Permutation(rng, 600)
			return s, workload.ShiftInts(s, 13)
		},
		func() ([]int, []int) {
			s := workload.Permutation(rng, 600)
			return s, workload.BlockMoveInts(rng, s, 40)
		},
	} {
		s, sbar := mk()
		res, err := UlamMPC(s, sbar, p)
		if err != nil {
			t.Fatalf("workload %d: %v", trial, err)
		}
		exact := ulam.Exact(s, sbar, nil)
		if res.Value < exact {
			t.Fatalf("workload %d: value %d below exact %d", trial, res.Value, exact)
		}
		if exact > 0 && float64(res.Value) > (1+p.Eps)*float64(exact) {
			t.Errorf("workload %d: factor %.3f > 1+eps", trial, float64(res.Value)/float64(exact))
		}
		if res.Report.NumRounds != 2 {
			t.Errorf("workload %d: rounds %d != 2", trial, res.Report.NumRounds)
		}
		if res.Report.MaxWords > budget {
			t.Errorf("workload %d: memory %d > budget %d", trial, res.Report.MaxWords, budget)
		}
	}
}

// TestUlamMPCChainConsistent verifies the returned chain realizes the
// reported value: tuples are strictly increasing and non-overlapping, and
// tuple costs plus max-gap costs sum to Value.
func TestUlamMPCChainConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	s, sbar, _ := workload.PlantedUlam(rng, 500, 60)
	res, err := UlamMPC(s, sbar, Params{X: 0.3, Eps: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chain) == 0 {
		t.Fatal("no chain returned")
	}
	total := 0
	prevR, prevK := -1, -1
	for i, tp := range res.Chain {
		if tp.L <= prevR || tp.G <= prevK {
			t.Fatalf("chain tuple %d overlaps predecessor: %+v", i, tp)
		}
		gap := max(tp.L-prevR-1, tp.G-prevK-1)
		total += gap + tp.D
		// The tuple's claimed distance must match the true window distance.
		if d := ulam.Exact(s[tp.L:tp.R+1], sbar[tp.G:tp.K+1], nil); d != tp.D {
			t.Fatalf("chain tuple %d claims D=%d, true %d", i, tp.D, d)
		}
		prevR, prevK = tp.R, tp.K
	}
	total += max(len(s)-1-prevR, len(sbar)-1-prevK)
	if total != res.Value {
		t.Fatalf("chain cost %d != value %d", total, res.Value)
	}
}
