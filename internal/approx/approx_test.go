package approx

import (
	"math/rand"
	"testing"

	"mpcdist/internal/editdist"
	"mpcdist/internal/stats"
	"mpcdist/internal/workload"
)

func TestEdExactOnSmallInputs(t *testing.T) {
	// Below the small cutoff the result must be exact.
	rng := rand.New(rand.NewSource(51))
	p := Params{Seed: 1}
	for trial := 0; trial < 120; trial++ {
		a := workload.RandomString(rng, rng.Intn(90), 4)
		b := workload.RandomString(rng, rng.Intn(90), 4)
		want := editdist.Distance(a, b, nil)
		if got := Ed(a, b, p, nil); got != want {
			t.Fatalf("Ed(%q,%q) = %d, want exact %d", a, b, got, want)
		}
	}
}

func TestEdExactWhenDistanceModerate(t *testing.T) {
	// ed <= |a|^{5/6} stays on the banded-exact path: exact result.
	rng := rand.New(rand.NewSource(52))
	p := Params{Seed: 2}
	for trial := 0; trial < 15; trial++ {
		n := 400 + rng.Intn(400)
		a := workload.RandomString(rng, n, 8)
		b := workload.PlantedEdits(rng, a, 1+rng.Intn(30), 8)
		want := editdist.Distance(a, b, nil)
		if got := Ed(a, b, p, nil); got != want {
			t.Fatalf("moderate-distance Ed = %d, want exact %d (n=%d)", got, want, n)
		}
	}
}

func TestEdEqualStringsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := workload.RandomString(rng, 5000, 4)
	if got := Ed(a, a, Params{}, nil); got != 0 {
		t.Fatalf("Ed(a,a) = %d", got)
	}
}

func TestEdEmpty(t *testing.T) {
	if got := Ed(nil, []byte("abc"), Params{}, nil); got != 3 {
		t.Errorf("Ed(empty, abc) = %d", got)
	}
	if got := Ed([]byte("abc"), nil, Params{}, nil); got != 3 {
		t.Errorf("Ed(abc, empty) = %d", got)
	}
	if got := Ed(nil, nil, Params{}, nil); got != 0 {
		t.Errorf("Ed(empty, empty) = %d", got)
	}
}

func TestEdUpperBoundAndFactorFarRegime(t *testing.T) {
	// Far-apart strings: result must be an upper bound within the factor.
	rng := rand.New(rand.NewSource(54))
	p := Params{Eps: 0.5, Seed: 3}
	factor := Factor(p)
	for trial := 0; trial < 8; trial++ {
		n := 300 + rng.Intn(300)
		a := workload.RandomString(rng, n, 4)
		b := workload.RandomString(rng, n, 4)
		want := editdist.Distance(a, b, nil)
		got := Ed(a, b, p, nil)
		if got < want {
			t.Fatalf("Ed = %d below true distance %d", got, want)
		}
		if float64(got) > factor*float64(want)+1 {
			t.Fatalf("Ed = %d exceeds %.2f x true %d", got, factor, want)
		}
	}
}

// TestEdFarPinned pins the value and the op charge of Ed on far pairs
// (two random strings, distance well above |a|^{5/6}), where the
// large-distance machinery answers: a change that moves either is a
// change of the [12] stand-in, not a refactor.
func TestEdFarPinned(t *testing.T) {
	for _, c := range []struct {
		n, sigma, value int
		ops             int64
	}{
		{300, 3, 153, 614785},
		{300, 4, 190, 612760},
		{300, 8, 234, 611649},
		{800, 3, 493, 4481891},
		{800, 8, 706, 4472146},
		{1200, 4, 926, 9990970},
		{2000, 3, 1420, 28630058},
		{2000, 8, 2133, 27574827},
	} {
		rng := rand.New(rand.NewSource(7))
		a := workload.RandomString(rng, c.n, c.sigma)
		b := workload.RandomString(rng, c.n, c.sigma)
		var ops stats.Ops
		if v := Ed(a, b, Params{Seed: 7}, &ops); v != c.value || ops.Count() != c.ops {
			t.Errorf("n %d sigma %d: Ed = %d with %d ops, want %d with %d", c.n, c.sigma, v, ops.Count(), c.value, c.ops)
		}
	}
}

func TestEdShiftWorkload(t *testing.T) {
	// Rotations: small true distance, adversarial for block alignments.
	rng := rand.New(rand.NewSource(55))
	p := Params{Seed: 4}
	a := workload.RandomString(rng, 600, 6)
	for _, k := range []int{1, 5, 25} {
		b := workload.Shift(a, k)
		want := editdist.Distance(a, b, nil)
		got := Ed(a, b, p, nil)
		if got != want { // within the banded-exact regime
			t.Fatalf("shift %d: Ed = %d, want %d", k, got, want)
		}
	}
}

func TestEdDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a := workload.RandomString(rng, 400, 3)
	b := workload.RandomString(rng, 400, 3)
	p := Params{Seed: 9}
	v1 := Ed(a, b, p, nil)
	v2 := Ed(a, b, p, nil)
	if v1 != v2 {
		t.Fatalf("nondeterministic: %d vs %d", v1, v2)
	}
}

func TestEdOpsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	a := workload.RandomString(rng, 300, 4)
	b := workload.PlantedEdits(rng, a, 10, 4)
	var ops stats.Ops
	Ed(a, b, Params{Seed: 5}, &ops)
	if ops.Count() == 0 {
		t.Error("no ops charged")
	}
}

func TestFactorDefaults(t *testing.T) {
	if f := Factor(Params{}); f != 6.75 {
		t.Errorf("Factor at the default eps = %v, want 3·1.5² = 6.75", f)
	}
	// A zero eps takes the default; the seed and a set eps are kept.
	if p := (Params{Seed: 9}).withDefaults(); p != (Params{Eps: 0.5, Seed: 9}) {
		t.Errorf("defaults = %+v", p)
	}
	if p := (Params{Eps: 0.25, Seed: 3}).withDefaults(); p != (Params{Eps: 0.25, Seed: 3}) {
		t.Errorf("set values changed: %+v", p)
	}
}

func TestEdSubquadraticOpsInModerateRegime(t *testing.T) {
	// On planted small-distance inputs the ops should be near |a|·d, far
	// below |a|^2.
	rng := rand.New(rand.NewSource(58))
	n := 4000
	a := workload.RandomString(rng, n, 8)
	b := workload.PlantedEdits(rng, a, 40, 8)
	var ops stats.Ops
	Ed(a, b, Params{Seed: 6}, &ops)
	quad := int64(n) * int64(n)
	if ops.Count() >= quad/4 {
		t.Errorf("ops = %d, not subquadratic (n^2 = %d)", ops.Count(), quad)
	}
}
