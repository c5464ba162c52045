package mpcdist

import (
	"math/rand"
	"testing"

	"mpcdist/internal/workload"
)

func TestEditDistancePaperExample(t *testing.T) {
	if got := EditDistance("elephant", "relevant"); got != 3 {
		t.Errorf("EditDistance(elephant, relevant) = %d, want 3", got)
	}
}

func TestEditDistanceVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := workload.RandomString(rng, rng.Intn(90), 4)
		b := workload.RandomString(rng, rng.Intn(90), 4)
		want := EditDistanceBytes(a, b, nil)
		if got := EditDistanceFast(a, b, nil); got != want {
			t.Fatalf("Fast = %d, want %d", got, want)
		}
		if got := EditDistanceBounded(a, b, want, nil); got != want {
			t.Fatalf("Bounded = %d, want %d", got, want)
		}
	}
}

func TestEditScriptAPI(t *testing.T) {
	script := EditScript([]byte("kitten"), []byte("sitting"))
	cost := 0
	for _, op := range script {
		if op.Kind != Match {
			cost++
		}
	}
	if cost != 3 {
		t.Errorf("script cost = %d, want 3", cost)
	}
}

func TestUlamDistanceAPI(t *testing.T) {
	if got := UlamDistance([]int{1, 2, 3}, []int{2, 3, 1}); got != 2 {
		t.Errorf("UlamDistance = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("repeated characters did not panic")
		}
	}()
	UlamDistance([]int{1, 1}, []int{1, 2})
}

func TestCheckDistinctAPI(t *testing.T) {
	if err := CheckDistinct([]int{1, 2}); err != nil {
		t.Error(err)
	}
	if err := CheckDistinct([]int{2, 2}); err == nil {
		t.Error("repeat accepted")
	}
}

func TestLocalUlamAPI(t *testing.T) {
	d, win := LocalUlam([]int{5, 6}, []int{1, 5, 6, 2})
	if d != 0 || win.Gamma != 1 || win.Kappa != 2 {
		t.Errorf("LocalUlam = %d %+v", d, win)
	}
}

func TestMPCEndToEndViaAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, sbar, _ := workload.PlantedUlam(rng, 300, 30)
	res, err := UlamDistanceMPC(s, sbar, MPCParams{X: 0.3, Eps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := UlamDistance(s, sbar)
	if res.Value < exact || float64(res.Value) > 2*float64(exact)+1 {
		t.Errorf("Ulam MPC value %d vs exact %d", res.Value, exact)
	}

	a := workload.RandomString(rng, 500, 4)
	b := workload.PlantedEdits(rng, a, 20, 4)
	eres, err := EditDistanceMPC(a, b, MPCParams{X: 0.25, Eps: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := EditDistanceBytes(a, b, nil)
	if eres.Value < ex || float64(eres.Value) > 1.5*float64(ex)+1 {
		t.Errorf("Edit MPC value %d vs exact %d", eres.Value, ex)
	}

	hres, err := EditDistanceHSS(a, b, MPCParams{X: 0.25, Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hres.Value < ex || float64(hres.Value) > 1.5*float64(ex)+1 {
		t.Errorf("HSS value %d vs exact %d", hres.Value, ex)
	}
	if hres.Report.MaxMachines <= eres.Report.MaxMachines {
		t.Errorf("HSS machines %d should exceed ours %d",
			hres.Report.MaxMachines, eres.Report.MaxMachines)
	}
}

func TestMPCRegimeAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := workload.RandomString(rng, 300, 4)
	b := workload.PlantedEdits(rng, a, 15, 4)
	ex := EditDistanceBytes(a, b, nil)
	res, err := EditDistanceMPCSmall(a, b, 2*ex+2, MPCParams{X: 0.25, Eps: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < ex {
		t.Errorf("small regime value %d below exact %d", res.Value, ex)
	}
	// The large regime requires guesses above n^{1-x/5}.
	lres, err := EditDistanceMPCLarge(a, b, 256, MPCParams{X: 0.25, Eps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Value < ex {
		t.Errorf("large regime value %d below exact %d", lres.Value, ex)
	}
	if _, err := EditDistanceMPCLarge(a, b, 3, MPCParams{X: 0.25, Eps: 1}); err == nil {
		t.Error("large regime accepted a guess below n^{1-x/5}")
	}
}

func maxIntT(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDiagonalAndUlamScriptAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := workload.RandomString(rng, 200, 4)
	b := workload.PlantedEdits(rng, a, 9, 4)
	if got, want := EditDistanceDiagonal(a, b, nil), EditDistanceBytes(a, b, nil); got != want {
		t.Errorf("diagonal = %d, want %d", got, want)
	}
	p := rng.Perm(50)
	q := rng.Perm(50)
	script := UlamScript(p, q)
	cost := 0
	for _, op := range script {
		if op.Kind != Match {
			cost++
		}
	}
	if cost != UlamDistance(p, q) {
		t.Errorf("UlamScript cost %d != distance %d", cost, UlamDistance(p, q))
	}
}

func TestIndelAndLISAPI(t *testing.T) {
	a := []int{1, 2, 3}
	b := []int{2, 3, 1}
	ud := UlamDistance(a, b)      // 2
	id := UlamIndelDistance(a, b) // 2
	if id < ud || id > 2*ud {
		t.Errorf("indel %d outside [%d, %d]", id, ud, 2*ud)
	}
	if got := LongestIncreasingSubsequence([]int{10, 9, 2, 5, 3, 7, 101, 18}); got != 4 {
		t.Errorf("LIS = %d, want 4", got)
	}
}

func TestUlamMPCChainViaAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := rng.Perm(400)
	sbar := workload.ShiftInts(s, 7)
	res, err := UlamDistanceMPC(s, sbar, MPCParams{X: 0.3, Eps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chain) == 0 {
		t.Error("no chain in result")
	}
	for _, bm := range res.Chain {
		var _ BlockMatch = bm
		if bm.L > bm.R || bm.G > bm.K {
			t.Errorf("degenerate block match %+v", bm)
		}
	}
}

func TestLCSAPIs(t *testing.T) {
	a, b := []byte("AGGTAB"), []byte("GXTXAYB")
	if got := LCSLength(a, b, nil); got != 4 {
		t.Errorf("LCSLength = %d, want 4", got)
	}
	ps := LCSPairs(a, b)
	if len(ps) != 4 {
		t.Errorf("LCSPairs = %d, want 4", len(ps))
	}
	for _, p := range ps {
		if a[p.I] != b[p.J] {
			t.Errorf("pair %+v not a match", p)
		}
	}
	if got := IndelDistance(a, b, nil); got != 6+7-2*4 {
		t.Errorf("IndelDistance = %d, want 5", got)
	}
	rng := rand.New(rand.NewSource(6))
	s := workload.RandomString(rng, 400, 4)
	sb := workload.PlantedEdits(rng, s, 15, 4)
	res, err := LCSMPC(s, sb, MPCParams{X: 0.25, Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := LCSLength(s, sb, nil)
	if res.Value > exact || float64(res.Value) < 0.6*float64(exact) {
		t.Errorf("LCSMPC = %d vs exact %d", res.Value, exact)
	}
}
