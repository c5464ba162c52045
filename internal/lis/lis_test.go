package lis

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveLIS is an O(n^2) reference for the strictly increasing LIS.
func naiveLIS(a []int) int {
	best := 0
	d := make([]int, len(a))
	for i := range a {
		d[i] = 1
		for j := 0; j < i; j++ {
			if a[j] < a[i] && d[j]+1 > d[i] {
				d[i] = d[j] + 1
			}
		}
		if d[i] > best {
			best = d[i]
		}
	}
	return best
}

func TestLengthSmall(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{1, 2, 3}, 3},
		{[]int{3, 2, 1}, 1},
		{[]int{10, 9, 2, 5, 3, 7, 101, 18}, 4},
		{[]int{2, 2, 2}, 1},
		{[]int{1, 3, 2, 4}, 3},
	}
	for _, c := range cases {
		if got := Length(c.in); got != c.want {
			t.Errorf("Length(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLengthQuickVsNaive(t *testing.T) {
	f := func(a []int) bool {
		if len(a) > 200 {
			a = a[:200]
		}
		return Length(a) == naiveLIS(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLCSDistinct(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	b := []int{5, 1, 2, 3, 4}
	if got := LCSDistinct(a, b); got != 4 {
		t.Errorf("LCSDistinct = %d, want 4", got)
	}
	if got := LCSDistinct(a, []int{9, 8, 7}); got != 0 {
		t.Errorf("disjoint LCSDistinct = %d, want 0", got)
	}
	if got := LCSDistinct(nil, nil); got != 0 {
		t.Errorf("empty LCSDistinct = %d, want 0", got)
	}
}

// naiveLCS is the classic quadratic LCS for the distinct-character case.
func naiveLCS(a, b []int) int {
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

func randPerm(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	return p
}

func TestLCSDistinctVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		a := randPerm(rng, n)
		// b: subset of a's characters plus fresh ones, shuffled.
		b := make([]int, 0, n)
		for _, v := range a {
			if rng.Intn(2) == 0 {
				b = append(b, v)
			}
		}
		for i := 0; i < rng.Intn(10); i++ {
			b = append(b, n+100+i)
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if got, want := LCSDistinct(a, b), naiveLCS(a, b); got != want {
			t.Fatalf("LCSDistinct(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestIndelUlamProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		a := randPerm(rng, n)
		b := randPerm(rng, n)
		d := IndelUlam(a, b)
		if d%2 != 0 {
			t.Fatalf("indel Ulam of equal-length permutations must be even, got %d", d)
		}
		if d != IndelUlam(b, a) {
			t.Fatalf("IndelUlam not symmetric")
		}
		if IndelUlam(a, a) != 0 {
			t.Fatalf("IndelUlam(a,a) != 0")
		}
	}
}
