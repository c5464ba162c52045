package mpcdist

// Benchmark harness: one benchmark per artifact of the paper's evaluation
// (Table 1's rows and the constructions behind Figs. 2-7), plus ablations
// for the design choices called out in DESIGN.md. Model quantities
// (machines, rounds, memory, DP operations) are attached to each run via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// measured Table 1. See EXPERIMENTS.md for recorded results.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpcdist/internal/baseline"
	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/core"
	"mpcdist/internal/editdist"
	"mpcdist/internal/harness"
	"mpcdist/internal/lcs"
	"mpcdist/internal/stats"
	"mpcdist/internal/ulam"
	"mpcdist/internal/workload"
)

func reportResult(b *testing.B, res core.Result) {
	b.ReportMetric(float64(res.Report.NumRounds), "rounds")
	b.ReportMetric(float64(res.Report.MaxMachines), "machines")
	b.ReportMetric(float64(res.Report.MaxWords), "memWords")
	b.ReportMetric(float64(res.Report.TotalOps)/float64(b.N), "totalOps/op")
	b.ReportMetric(float64(res.Report.CriticalOps)/float64(b.N), "critOps/op")
}

// --- Table 1, row "Ulam Distance, Theorem 4" ---

func BenchmarkTable1UlamMPC(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, x := range []float64{0.2, 0.3} {
			b.Run(fmt.Sprintf("n=%d/x=%.2f", n, x), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				s, sbar, _ := workload.PlantedUlam(rng, n, n/10)
				var res core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.UlamMPC(s, sbar, core.Params{X: x, Eps: 0.5, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				exact := ulam.Exact(s, sbar, nil)
				b.ReportMetric(float64(res.Value)/float64(max(exact, 1)), "factor")
				reportResult(b, res)
			})
		}
	}
}

// --- Table 1, rows "Edit Distance": Theorem 9 vs [20] ---

func benchEditPair(b *testing.B, n, d int, x float64) {
	rng := rand.New(rand.NewSource(2))
	s := workload.RandomString(rng, n, 4)
	sbar := workload.PlantedEdits(rng, s, d, 4)
	exact := editdist.Myers(s, sbar, nil)
	b.Run(fmt.Sprintf("ours/n=%d/x=%.2f", n, x), func(b *testing.B) {
		var res core.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = core.EditMPC(s, sbar, core.Params{X: x, Eps: 0.5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Value)/float64(max(exact, 1)), "factor")
		reportResult(b, res)
	})
	b.Run(fmt.Sprintf("hss/n=%d/x=%.2f", n, x), func(b *testing.B) {
		var res core.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = baseline.HSSEditMPC(s, sbar, core.Params{X: x, Eps: 0.5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Value)/float64(max(exact, 1)), "factor")
		reportResult(b, res)
	})
}

func BenchmarkTable1EditMPC(b *testing.B) {
	benchEditPair(b, 2000, 40, 0.25)
	benchEditPair(b, 8000, 120, 0.25)
	benchEditPair(b, 8000, 120, 0.2)
}

// BenchmarkTable1EditLargeRegime exercises Lemma 8 (the four-round far
// path) at its validity boundary.
func BenchmarkTable1EditLargeRegime(b *testing.B) {
	for _, n := range []int{512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			s := workload.RandomString(rng, n, 12)
			sbar := workload.RandomString(rng, n, 12)
			guess := int(math.Pow(float64(n), 1-0.25/5)) + 1
			var res core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.EditLargeMPC(s, sbar, guess, core.Params{X: 0.25, Eps: 1, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			exact := editdist.Myers(s, sbar, nil)
			b.ReportMetric(float64(res.Value)/float64(max(exact, 1)), "factor")
			reportResult(b, res)
		})
	}
}

// BenchmarkEditMPCFar runs one job of the wall-time benchmark's edit-far
// shape per op: EditMPC at x 0.25 on a far pair, DNA of length 144
// against a string over 26 other letters (so ed = n), cycling over 32
// pairs with one sampling seed each. B/op and allocs/op are the
// allocation per job behind edit-far's alloc_mb_per_op.
func BenchmarkEditMPCFar(b *testing.B) {
	const n, pairs = 144, 32
	rng := rand.New(rand.NewSource(1))
	type job struct {
		s, sbar []byte
		seed    int64
	}
	jobs := make([]job, pairs)
	for i := range jobs {
		jobs[i] = job{workload.DNA(rng, n), workload.RandomString(rng, n, 26), int64(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%pairs]
		res, err := core.EditMPC(j.s, j.sbar, core.Params{X: 0.25, Seed: j.seed})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value < n || float64(res.Value) > 3.5*n {
			b.Fatalf("pair %d: value %d outside [%d, 3.5·%d]", i%pairs, res.Value, n, n)
		}
	}
}

// BenchmarkUlamMPCLarge runs one job of the wall-time benchmark's
// ulam-large shape per op: UlamMPC at x 0.3 and the default eps on a
// planted pair of length 2048 at distance round(n^0.6) = 98, cycling over
// 32 pairs with one sampling seed each. B/op and allocs/op are the
// allocation per job behind ulam-large's alloc_mb_per_op.
func BenchmarkUlamMPCLarge(b *testing.B) {
	const n, pairs = 2048, 32
	d := int(math.Round(math.Pow(n, 0.6)))
	rng := rand.New(rand.NewSource(1))
	type job struct {
		s, sbar []int
		exact   int
		seed    int64
	}
	jobs := make([]job, pairs)
	for i := range jobs {
		s, sbar, _ := workload.PlantedUlam(rng, n, d)
		jobs[i] = job{s, sbar, ulam.Exact(s, sbar, nil), int64(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%pairs]
		p := core.Params{X: 0.3, Seed: j.seed}
		res, err := core.UlamMPC(j.s, j.sbar, p)
		if err != nil {
			b.Fatal(err)
		}
		if eps := p.WithDefaults().Eps; res.Value < j.exact || float64(res.Value) > (1+eps)*float64(j.exact) {
			b.Fatalf("pair %d: value %d outside [%d, (1+%v)·%d]", i%pairs, res.Value, j.exact, eps, j.exact)
		}
	}
}

// --- Headline claim: machine-count exponents (ours n^{(9/5)x} vs n^{2x}) ---

func BenchmarkMachinesSweepEdit(b *testing.B) {
	sizes := []int{1000, 2000, 4000, 8000}
	x := 0.25
	b.Run(fmt.Sprintf("x=%.2f", x), func(b *testing.B) {
		var rows [][]harness.Row
		var err error
		for i := 0; i < b.N; i++ {
			rows, err = harness.Sweep([]*harness.Spec{harness.Edit, harness.HSS}, sizes, []float64{x},
				harness.Edit.Planted, core.Params{Eps: 0.5, Seed: 1}, false)
			if err != nil {
				b.Fatal(err)
			}
		}
		ours, hss := rows[0], rows[1]
		b.ReportMetric(harness.Fit(ours, harness.Machines), "oursMachExp")
		b.ReportMetric(harness.Fit(hss, harness.Machines), "hssMachExp")
		b.ReportMetric(harness.Fit(ours, harness.TotalOps), "oursOpsExp")
		b.ReportMetric(harness.Fit(hss, harness.TotalOps), "hssOpsExp")
		last := len(ours) - 1
		b.ReportMetric(stats.Ratio(int64(hss[last].Machines), int64(ours[last].Machines)), "machRatioAtMaxN")
	})
}

func BenchmarkMachinesSweepUlam(b *testing.B) {
	sizes := []int{1024, 2048, 4096, 8192}
	var rows [][]harness.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.Sweep([]*harness.Spec{harness.Ulam}, sizes, []float64{0.3},
			harness.Ulam.Planted, core.Params{Eps: 1, Seed: 1}, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(harness.Fit(rows[0], harness.TotalOps), "totalOpsExp")
	b.ReportMetric(harness.Fit(rows[0], harness.Machines), "machExp")
}

// --- Fig. 2 / Lemma 1: local Ulam distance kernel ---

func BenchmarkFig2LocalUlam(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	sbar := rng.Perm(100000)
	block := append([]int(nil), sbar[40000:40512]...)
	for i := 0; i < 40; i++ {
		block[rng.Intn(len(block))] = 1000000 + i
	}
	pairs := ulam.PairsOf(block, sbar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ulam.LocalPairs(len(block), pairs, len(sbar), nil)
	}
}

// --- Figs. 4-5 / Lemma 5: candidate generation ---

func BenchmarkFig45CandidateGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for l := 0; l < 100000; l += 10000 {
			for _, g := range cand.Starts(l, 5000, 125, 100000) {
				total += len(cand.Ends(g, 10000, 100000, 0.25, 40001, 5000))
			}
		}
		if total == 0 {
			b.Fatal("no candidates")
		}
	}
}

// --- Fig. 6 / Lemma 7: representative phase of the large regime ---

func BenchmarkFig6Representatives(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 768
	s := workload.RandomString(rng, n, 12)
	sbar := workload.RandomString(rng, n, 12)
	guess := int(math.Pow(float64(n), 1-0.25/5)) + 1
	b.ResetTimer()
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.EditLargeMPC(s, sbar, guess, core.Params{X: 0.25, Eps: 1, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	// The representative round is round 1 of the report.
	r1 := res.Report.Rounds[0]
	b.ReportMetric(float64(r1.Machines), "repMachines")
	b.ReportMetric(float64(r1.TotalOps)/float64(b.N), "repOps/op")
}

// --- Fig. 7: low-degree extension (round 3 of the large regime) ---

func BenchmarkFig7Extension(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 768
	s := workload.RandomString(rng, n, 4)
	sbar := workload.Shift(workload.PlantedEdits(rng, s, 40, 4), n/3)
	guess := int(math.Pow(float64(n), 1-0.25/5)) + 1
	b.ResetTimer()
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.EditLargeMPC(s, sbar, guess, core.Params{X: 0.25, Eps: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	r3 := res.Report.Rounds[2]
	b.ReportMetric(float64(r3.Machines), "extMachines")
	b.ReportMetric(float64(r3.TotalOps)/float64(b.N), "extOps/op")
}

// --- Ablations (DESIGN.md design choices) ---

// Ablation 2: Fenwick-accelerated chain DP vs the quadratic DP as printed
// in Algorithm 4 (the paper's "suitable data structure" remark).
func BenchmarkAblationChainDP(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tuples := make([]chain.Tuple, 5000)
	for i := range tuples {
		l := rng.Intn(100000)
		g := rng.Intn(100000)
		tuples[i] = chain.Tuple{
			L: l, R: l + rng.Intn(100000-l),
			G: g, K: g + rng.Intn(100000-g),
			D: rng.Intn(500),
		}
	}
	b.Run("fenwick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.EditCost(tuples, 100000, 100000, true, nil)
		}
	})
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.EditCostQuadratic(tuples, 100000, 100000, true, nil)
		}
	})
}

// Ablation 3: CDQ-accelerated Ulam match-point DP vs the quadratic DP.
func BenchmarkAblationUlamDP(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := rng.Perm(2000)
	y := rng.Perm(2000)
	b.Run("cdq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ulam.Exact(x, y, nil)
		}
	})
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ulam.ExactQuadratic(x, y, nil)
		}
	})
}

// Ablation 4: sequential exact kernels (the substrate of every machine).
func BenchmarkKernelsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := workload.RandomString(rng, 4096, 4)
	c := workload.PlantedEdits(rng, a, 64, 4)
	b.Run("classicDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.Distance(a, c, nil)
		}
	})
	b.Run("myers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.Myers(a, c, nil)
		}
	})
	b.Run("bandedAtD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.BoundedDistance(a, c, 64, nil)
		}
	})
	b.Run("diagonalTransition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.DiagonalTransition(a, c, nil)
		}
	})
	b.Run("hirschbergScript", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.Script(a[:512], c[:512])
		}
	})
}

// --- Extensions: LCS MPC and the diagonal-transition kernel ---

func BenchmarkExtensionLCSMPC(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	s := workload.RandomString(rng, 2000, 4)
	sbar := workload.PlantedEdits(rng, s, 50, 4)
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = baseline.LCSMPC(s, sbar, core.Params{X: 0.25, Eps: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Value), "lcs")
	reportResult(b, res)
}

func BenchmarkKernelDiagonalVsMyers(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	a := workload.RandomString(rng, 50000, 4)
	c := workload.PlantedEdits(rng, a, 50, 4)
	b.Run("diagonal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.DiagonalTransition(a, c, nil)
		}
	})
	b.Run("myers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			editdist.Myers(a, c, nil)
		}
	})
}

func BenchmarkKernelLCSHuntSzymanski(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := workload.RandomString(rng, 4096, 26)
	c := workload.PlantedEdits(rng, a, 64, 26)
	for i := 0; i < b.N; i++ {
		lcs.HuntSzymanski(a, c, nil)
	}
}

// BenchmarkTheorem9AtXStar measures the intro's concrete parameterization:
// "using specific parameters and Õ(n^{5/17}) machines, the total running
// time of our algorithm is O(n^{1.883}) and the parallel running time is
// O(n^{1.353})" — x = 5/17, the largest exponent Theorem 9 admits.
func BenchmarkTheorem9AtXStar(b *testing.B) {
	const xStar = 5.0 / 17
	rng := rand.New(rand.NewSource(14))
	n := 4000
	s := workload.RandomString(rng, n, 4)
	sbar := workload.PlantedEdits(rng, s, 60, 4)
	var res core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.EditMPC(s, sbar, core.Params{X: xStar, Eps: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, res)
	b.ReportMetric(math.Pow(float64(n), 2-2.0/17), "paperTotalOpsBound")
	b.ReportMetric(math.Pow(float64(n), 2-11.0/5*xStar), "paperCritOpsBound")
}
