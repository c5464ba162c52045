package lcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcdist/internal/editdist"
	"mpcdist/internal/lis"
	"mpcdist/internal/stats"
	"mpcdist/internal/workload"
)

// naiveLCS is the independent full-matrix reference.
func naiveLCS(a, b []byte) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				d[i][j] = d[i-1][j-1] + 1
			} else if d[i-1][j] > d[i][j-1] {
				d[i][j] = d[i-1][j]
			} else {
				d[i][j] = d[i][j-1]
			}
		}
	}
	return d[len(a)][len(b)]
}

func TestLengthKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abcde", "ace", 3},
		{"AGGTAB", "GXTXAYB", 4},
		{"abc", "abc", 3},
		{"abc", "cba", 1},
	}
	for _, c := range cases {
		if got := Length([]byte(c.a), []byte(c.b), nil); got != c.want {
			t.Errorf("Length(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := HuntSzymanski([]byte(c.a), []byte(c.b), nil); got != c.want {
			t.Errorf("HuntSzymanski(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAllAlgorithmsAgreeQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 100 {
			a = a[:100]
		}
		if len(b) > 100 {
			b = b[:100]
		}
		want := naiveLCS(a, b)
		return Length(a, b, nil) == want &&
			HuntSzymanski(a, b, nil) == want &&
			len(Pairs(a, b)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPairsAreValidMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 100; trial++ {
		a := workload.RandomString(rng, rng.Intn(80), 3)
		b := workload.RandomString(rng, rng.Intn(80), 3)
		ps := Pairs(a, b)
		if len(ps) != Length(a, b, nil) {
			t.Fatalf("Pairs length %d != LCS %d", len(ps), Length(a, b, nil))
		}
		for k, p := range ps {
			if a[p.I] != b[p.J] {
				t.Fatalf("pair %d not a match", k)
			}
			if k > 0 && (p.I <= ps[k-1].I || p.J <= ps[k-1].J) {
				t.Fatalf("pairs not strictly increasing at %d: %v", k, ps)
			}
		}
	}
}

func TestDualityWithEditDistance(t *testing.T) {
	// max(n,m) - LCS <= ed <= n + m - 2 LCS (indel distance).
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 100; trial++ {
		a := workload.RandomString(rng, rng.Intn(60), 4)
		b := workload.RandomString(rng, rng.Intn(60), 4)
		l := Length(a, b, nil)
		ed := editdist.Distance(a, b, nil)
		hi := IndelDistance(a, b, nil)
		lo := max(len(a), len(b)) - l
		if ed < lo || ed > hi {
			t.Fatalf("ed %d outside [%d, %d] (lcs=%d)", ed, lo, hi, l)
		}
		if hi != len(a)+len(b)-2*l {
			t.Fatalf("IndelDistance inconsistent")
		}
	}
}

func TestDistinctCharactersMatchLISReduction(t *testing.T) {
	// For distinct characters, LCS via Hunt-Szymanski must equal the LIS
	// reduction in the lis package.
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(100)
		pa := rng.Perm(256)[:n]
		pb := rng.Perm(256)[:rng.Intn(200)+1]
		ba := make([]byte, len(pa))
		bb := make([]byte, len(pb))
		ia := make([]int, len(pa))
		ib := make([]int, len(pb))
		for i, v := range pa {
			ba[i] = byte(v)
			ia[i] = v
		}
		for i, v := range pb {
			bb[i] = byte(v)
			ib[i] = v
		}
		if got, want := HuntSzymanski(ba, bb, nil), lis.LCSDistinct(ia, ib); got != want {
			t.Fatalf("HS %d != LIS reduction %d", got, want)
		}
	}
}

func TestHuntSzymanskiSparseFast(t *testing.T) {
	// Distinct characters: r = n matches; ops must be near-linear, far
	// below the DP's quadratic cells.
	var hsOps, dpOps stats.Ops
	a := make([]byte, 200)
	b := make([]byte, 200)
	for i := range a {
		a[i] = byte(i)
		b[i] = byte((i * 37) % 200)
	}
	HuntSzymanski(a, b, &hsOps)
	Length(a, b, &dpOps)
	if hsOps.Count() >= dpOps.Count()/10 {
		t.Errorf("HS ops %d not well below DP ops %d", hsOps.Count(), dpOps.Count())
	}
}

func TestGenericMatchesByteVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 120; trial++ {
		a := workload.RandomString(rng, rng.Intn(80), 4)
		b := workload.RandomString(rng, rng.Intn(80), 4)
		ia := make([]int, len(a))
		ib := make([]int, len(b))
		for i, c := range a {
			ia[i] = int(c)
		}
		for i, c := range b {
			ib[i] = int(c)
		}
		want := Length(a, b, nil)
		ps := PairsOf(ia, ib)
		if len(ps) != want {
			t.Fatalf("PairsOf length %d, want %d", len(ps), want)
		}
		for k, p := range ps {
			if ia[p.I] != ib[p.J] {
				t.Fatalf("pair %d mismatch", k)
			}
			if k > 0 && (p.I <= ps[k-1].I || p.J <= ps[k-1].J) {
				t.Fatalf("pairs not increasing")
			}
		}
	}
}

func TestPairsOfStrings(t *testing.T) {
	a := []string{"alpha", "beta", "gamma", "delta"}
	b := []string{"beta", "alpha", "gamma", "epsilon", "delta"}
	if got := len(PairsOf(a, b)); got != 3 {
		t.Errorf("string-alphabet LCS = %d, want 3 (beta|alpha, gamma, delta)", got)
	}
}
