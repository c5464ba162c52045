package bitree

import (
	"math/rand"
	"testing"
)

func TestMinTreeBasic(t *testing.T) {
	mt := NewMin(8)
	if got := mt.PrefixMin(7); got != Inf {
		t.Fatalf("empty PrefixMin = %d, want Inf", got)
	}
	mt.Update(3, 10)
	mt.Update(5, 4)
	cases := []struct {
		idx  int
		want int64
	}{
		{-1, Inf}, {0, Inf}, {2, Inf}, {3, 10}, {4, 10}, {5, 4}, {7, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := mt.PrefixMin(c.idx); got != c.want {
			t.Errorf("PrefixMin(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
	mt.Update(3, 2)
	if got := mt.PrefixMin(4); got != 2 {
		t.Errorf("after lowering, PrefixMin(4) = %d, want 2", got)
	}
	// Updates never raise values.
	mt.Update(3, 99)
	if got := mt.PrefixMin(3); got != 2 {
		t.Errorf("raising update changed value: PrefixMin(3) = %d, want 2", got)
	}
	mt.Reset()
	if got := mt.PrefixMin(7); got != Inf {
		t.Errorf("after Reset PrefixMin = %d, want Inf", got)
	}
}

func TestMinTreeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	mt := NewMin(n)
	naive := make([]int64, n)
	for i := range naive {
		naive[i] = Inf
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		v := int64(rng.Intn(1000))
		mt.Update(i, v)
		if v < naive[i] {
			naive[i] = v
		}
		q := rng.Intn(n)
		want := int64(Inf)
		for j := 0; j <= q; j++ {
			if naive[j] < want {
				want = naive[j]
			}
		}
		if got := mt.PrefixMin(q); got != want {
			t.Fatalf("step %d: PrefixMin(%d) = %d, want %d", step, q, got, want)
		}
	}
}

func TestMaxTreeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 48
	mt := NewMax(n)
	naive := make([]int64, n)
	for i := range naive {
		naive[i] = NegInf
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		v := int64(rng.Intn(1000)) - 500
		mt.Update(i, v)
		if v > naive[i] {
			naive[i] = v
		}
		q := rng.Intn(n)
		want := int64(NegInf)
		for j := 0; j <= q; j++ {
			if naive[j] > want {
				want = naive[j]
			}
		}
		if got := mt.PrefixMax(q); got != want {
			t.Fatalf("step %d: PrefixMax(%d) = %d, want %d", step, q, got, want)
		}
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinTree.Update out of range did not panic")
		}
	}()
	NewMin(4).Update(4, 0)
}
