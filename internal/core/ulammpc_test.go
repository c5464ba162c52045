package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcdist/internal/chain"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
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

// refUlamBatch is Algorithm 1 for one block written out the transparent
// way: every sampled anchor with its repeats, a map from each distinct
// window to its distance, one ulam.WindowDist per window, candidates kept
// by append in visit order, and the dominated ones pruned. It also counts
// the surviving tuples by the branch that first kept them: [0] is Lemma 1
// (the local window and the grids around it), [1] Lemma 2 (the grids
// around the anchors).
func refUlamBatch(rng *rand.Rand, job *ulamJob, n int, epsP, hitConst float64) ([]chain.Tuple, [2]int) {
	type window struct{ sp, ep int }
	type visit struct {
		w          window
		uh, branch int
	}
	blen := job.R - job.L + 1
	d0, win := ulam.LocalPairs(blen, job.Pairs, job.SbarLen, nil)
	theta := hitConst * math.Log(float64(n)+2) / (epsP * float64(blen))
	var anchors []window
	for _, pr := range job.Pairs {
		if rng.Float64() < theta {
			anchors = append(anchors, window{pr.Q - pr.P, pr.Q + blen - 1 - pr.P})
		}
	}
	var visits []visit
	uMax := int(float64(blen)/epsP) + 1
	for _, u := range Ladder(epsP, uMax) {
		uh := int(float64(u)*(1+epsP)) + 1
		gap := max(int(epsP*float64(u)), 1)
		grid := func(c window, r, branch int) {
			for sp := c.sp - r - mod(c.sp-r, gap); sp <= c.sp+r; sp += gap {
				for ep := c.ep - r - mod(c.ep-r, gap); ep <= c.ep+r; ep += gap {
					if s, e := max(sp, 0), min(ep, job.SbarLen-1); s <= e {
						visits = append(visits, visit{window{s, e}, uh, branch})
					}
				}
			}
		}
		if u < (blen+1)/2 {
			if win.Len() > 0 {
				grid(window{win.Gamma, win.Kappa}, 2*uh, 0)
			}
		} else {
			for _, an := range anchors {
				grid(an, uh, 1)
			}
		}
	}
	dist := make(map[window]int)
	for _, v := range visits {
		if _, ok := dist[v.w]; !ok {
			dist[v.w] = ulam.WindowDist(blen, job.Pairs, v.w.sp, v.w.ep, nil)
		}
	}
	kept := make(map[window]bool)
	var cands []ulamCand
	var branch []int
	if win.Len() > 0 {
		kept[window{win.Gamma, win.Kappa}] = true
		cands = append(cands, ulamCand{win.Gamma, win.Kappa, d0})
		branch = append(branch, 0)
	}
	for _, v := range visits {
		if d := dist[v.w]; !kept[v.w] && float64(d) <= (1+3*epsP)*float64(v.uh) {
			kept[v.w] = true
			cands = append(cands, ulamCand{v.w.sp, v.w.ep, d})
			branch = append(branch, v.branch)
		}
	}
	pruneDominated(cands)
	var batch []chain.Tuple
	var byBranch [2]int
	for i, c := range cands {
		if c.d >= 0 {
			batch = append(batch, chain.Tuple{L: job.L, R: job.R, G: c.sp, K: c.ep, D: c.d})
			byBranch[branch[i]]++
		}
	}
	return batch, byBranch
}

// machineBatch runs fn as machine id of a fresh cluster's first round and
// returns the tuples it sent to the collector. Two such runs under one
// seed draw the same random stream.
func machineBatch(t *testing.T, seed int64, id int, fn func(x *mpc.Ctx)) []chain.Tuple {
	t.Helper()
	cl := mpc.NewCluster(mpc.Config{MachineWords: math.MaxInt32, Seed: seed})
	out, err := cl.Run("ulam/candidates", trace.PhaseCandidates, map[int][]mpc.Payload{id: {}},
		func(x *mpc.Ctx, _ []mpc.Payload) { fn(x) })
	if err != nil {
		t.Fatal(err)
	}
	var got []chain.Tuple
	for _, pl := range out[collector] {
		got = append(got, pl.(tuples)...)
	}
	return got
}

// TestUlamRound1MatchesReference pins round 1 of UlamMPC: on every block
// of near and far inputs, at several seeds and eps, runUlamRound1's batch
// equals refUlamBatch's tuple for tuple, order included, and both grid
// branches contribute surviving tuples.
func TestUlamRound1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	type input struct {
		name    string
		s, sbar []int
	}
	var inputs []input
	s, sbar, _ := workload.PlantedUlam(rng, 400, 15)
	inputs = append(inputs, input{"near", s, sbar})
	s, sbar, _ = workload.PlantedUlam(rng, 300, 225)
	inputs = append(inputs, input{"far", s, sbar})
	inputs = append(inputs, input{"shift", s, workload.ShiftInts(s, 37)})
	var byBranch [2]int
	for _, in := range inputs {
		for _, c := range []struct {
			eps  float64
			seed int64
		}{{1, 1}, {1, 2}, {0.5, 3}} {
			p := Params{X: 0.3, Eps: c.eps, Seed: c.seed}.WithDefaults()
			n := max(len(in.s), len(in.sbar))
			bsz, epsP := intPow(n, 1-p.X), p.Eps/2
			for id, l := 0, 0; l < len(in.s); id, l = id+1, l+bsz {
				r := min(l+bsz-1, len(in.s)-1)
				job := &ulamJob{L: l, R: r, SbarLen: len(in.sbar), Pairs: ulam.PairsOf(in.s[l:r+1], in.sbar)}
				got := machineBatch(t, c.seed, id, func(x *mpc.Ctx) { runUlamRound1(x, job, n, epsP) })
				var want []chain.Tuple
				var br [2]int
				machineBatch(t, c.seed, id, func(x *mpc.Ctx) { want, br = refUlamBatch(x.Rand(), job, n, epsP, hitConst) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s eps %v seed %d block %d: round 1 sent %d tuples, reference %d\n got  %v\n want %v",
						in.name, c.eps, c.seed, id, len(got), len(want), got, want)
				}
				byBranch[0] += br[0]
				byBranch[1] += br[1]
			}
		}
	}
	if byBranch[0] == 0 || byBranch[1] == 0 {
		t.Errorf("surviving tuples by branch (Lemma 1, Lemma 2) = %v, want both non-zero", byBranch)
	}
	t.Logf("surviving tuples by branch (Lemma 1, Lemma 2) = %v", byBranch)
}
