package editdist

import (
	"bytes"
	"math/rand"
	"testing"

	"mpcdist/internal/stats"
)

// plantEdits returns a copy of a with k random substitutions, deletions
// and insertions over the first sigma letters.
func plantEdits(rng *rand.Rand, a []byte, k, sigma int) []byte {
	b := append([]byte(nil), a...)
	for i := 0; i < k; i++ {
		p := rng.Intn(len(b))
		switch rng.Intn(3) {
		case 0:
			b[p] = byte('a' + rng.Intn(sigma))
		case 1:
			b = append(b[:p], b[p+1:]...)
		default:
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(sigma))}, b[p:]...)...)
		}
	}
	return b
}

func TestDiagonalTransitionVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		a := randBytes(rng, rng.Intn(80), 3)
		b := randBytes(rng, rng.Intn(80), 3)
		if got, want := DiagonalTransition(a, b, nil), Distance(a, b, nil); got != want {
			t.Fatalf("DiagonalTransition(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestDiagonalTransitionSmallDistanceLargeStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := randBytes(rng, 20000, 4)
	b := plantEdits(rng, a, 15, 4)
	want := Myers(a, b, nil)
	if got := DiagonalTransition(a, b, nil); got != want {
		t.Fatalf("large-string DiagonalTransition = %d, want %d", got, want)
	}
}

func TestDiagonalTransitionEdges(t *testing.T) {
	if got := DiagonalTransition(nil, []byte("ab"), nil); got != 2 {
		t.Errorf("empty a: %d", got)
	}
	if got := DiagonalTransition([]byte("ab"), nil, nil); got != 2 {
		t.Errorf("empty b: %d", got)
	}
	if got := DiagonalTransition([]byte("same"), []byte("same"), nil); got != 0 {
		t.Errorf("equal: %d", got)
	}
	// Highly repetitive strings: every diagonal extends to the end.
	a := bytes.Repeat([]byte{'x'}, 3000)
	b := bytes.Repeat([]byte{'x'}, 3100)
	if got := DiagonalTransition(a, b, nil); got != 100 {
		t.Errorf("repetitive: %d, want 100", got)
	}
}

// TestDiagonalTransitionOps pins the value and the op charge (one per
// diagonal step, plus n/8 on success) on three fixed pairs: planted edits
// on a random string and on a periodic one, and two unrelated strings.
func TestDiagonalTransitionOps(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	planted := randBytes(rng, 5000, 4)
	periodic := bytes.Repeat([]byte("acgt"), 500)
	for _, tc := range []struct {
		name string
		a, b []byte
		d    int
		ops  int64
	}{
		{"planted", planted, plantEdits(rng, planted, 30, 4), 27, 1381},
		{"periodic", periodic, plantEdits(rng, periodic, 20, 4), 20, 668},
		{"far", randBytes(rng, 300, 4), randBytes(rng, 280, 4), 159, 24973},
	} {
		var ops stats.Ops
		if d := DiagonalTransition(tc.a, tc.b, &ops); d != tc.d || ops.Count() != tc.ops {
			t.Errorf("%s: DiagonalTransition = %d with %d ops, want %d with %d", tc.name, d, ops.Count(), tc.d, tc.ops)
		}
	}
}

func TestLCEExtend(t *testing.T) {
	a := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	b := []byte("abcdefghijklmnopqrstuvwxyz012345678X")
	if got := lce(a, b); got != 35 {
		t.Errorf("lce(a, b) = %d, want 35", got)
	}
	if got := lce(a[35:], b[35:]); got != 0 {
		t.Errorf("lce at the mismatch = %d, want 0", got)
	}
	if got := lce(a[36:], b); got != 0 {
		t.Errorf("lce at the end of a = %d, want 0", got)
	}
	// Long equal strings: whole words up to the end.
	n := 5000
	x := make([]byte, n)
	for i := range x {
		x[i] = byte('a' + i%7)
	}
	if got := lce(x, x); got != n {
		t.Errorf("self lce = %d, want %d", got, n)
	}
	if got := lce(x[7:], x); got != n-7 {
		t.Errorf("periodic lce = %d, want %d", got, n-7)
	}
	// A first mismatch at every offset 0-16: in the first word, the second,
	// on their boundaries, and in the byte-by-byte tail.
	for off := 0; off <= 16; off++ {
		for _, l := range []int{off + 1, off + 8, 40} {
			p := bytes.Repeat([]byte{'q'}, l)
			q := bytes.Clone(p)
			q[off] = 'r'
			if got := lce(p, q); got != off {
				t.Errorf("mismatch at %d of %d: lce = %d", off, l, got)
			}
		}
	}
	// Suffixes of unequal length: the shorter one ends the match.
	for la := 0; la <= 20; la++ {
		for lb := 0; lb <= 20; lb++ {
			if got := lce(x[:la], x[:lb]); got != min(la, lb) {
				t.Errorf("lce of prefixes %d and %d = %d", la, lb, got)
			}
		}
	}
}

func BenchmarkDiagonalTransition20kD15(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	a := randBytes(rng, 20000, 4)
	c := append([]byte(nil), a...)
	for i := 0; i < 15; i++ {
		c[rng.Intn(len(c))] = byte('a' + rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiagonalTransition(a, c, nil)
	}
}
