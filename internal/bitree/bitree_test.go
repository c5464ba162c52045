package bitree

import (
	"math/rand"
	"testing"
)

func TestMinTreeBasic(t *testing.T) {
	mt := NewMin(8)
	if v, id := mt.PrefixMin(7); v != Inf || id != -1 {
		t.Fatalf("empty PrefixMin = (%d, %d), want (Inf, -1)", v, id)
	}
	mt.Update(3, 10, 30)
	mt.Update(5, 4, 50)
	cases := []struct {
		idx  int
		want int64
		id   int32
	}{
		{-1, Inf, -1}, {0, Inf, -1}, {2, Inf, -1}, {3, 10, 30}, {4, 10, 30}, {5, 4, 50}, {7, 4, 50}, {100, 4, 50},
	}
	for _, c := range cases {
		if v, id := mt.PrefixMin(c.idx); v != c.want || id != c.id {
			t.Errorf("PrefixMin(%d) = (%d, %d), want (%d, %d)", c.idx, v, id, c.want, c.id)
		}
	}
	mt.Update(3, 2, 31)
	if v, id := mt.PrefixMin(4); v != 2 || id != 31 {
		t.Errorf("after lowering, PrefixMin(4) = (%d, %d), want (2, 31)", v, id)
	}
	// Updates never raise values, and a tie keeps the earlier id.
	mt.Update(3, 99, 32)
	mt.Update(3, 2, 33)
	if v, id := mt.PrefixMin(3); v != 2 || id != 31 {
		t.Errorf("raising or tying update changed the minimum: PrefixMin(3) = (%d, %d), want (2, 31)", v, id)
	}
	mt.Clear(3)
	mt.Clear(5)
	if v, id := mt.PrefixMin(7); v != Inf || id != -1 {
		t.Errorf("after Clear PrefixMin = (%d, %d), want (Inf, -1)", v, id)
	}
}

// naiveMin returns the minimum of naive[0..q] and the lowest index holding
// it, or (Inf, -1) when every slot is Inf.
func naiveMin(naive []int64, q int) (int64, int) {
	best, at := int64(Inf), -1
	for j := 0; j <= q && j < len(naive); j++ {
		if naive[j] < best {
			best, at = naive[j], j
		}
	}
	return best, at
}

// TestMinTreeAgainstNaive updates each index under its own id and checks
// every answer against a naive array: the value is the prefix minimum, and
// the id is an index inside the prefix whose slot holds that minimum.
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
		mt.Update(i, v, int32(i))
		naive[i] = min(naive[i], v)
		q := rng.Intn(n)
		want, _ := naiveMin(naive, q)
		got, id := mt.PrefixMin(q)
		if got != want {
			t.Fatalf("step %d: PrefixMin(%d) = %d, want %d", step, q, got, want)
		}
		if want == Inf {
			if id != -1 {
				t.Fatalf("step %d: empty PrefixMin(%d) reports id %d, want -1", step, q, id)
			}
		} else if id < 0 || int(id) > q || naive[id] != want {
			t.Fatalf("step %d: PrefixMin(%d) reports id %d, which does not hold the minimum %d", step, q, id, want)
		}
	}
}

// TestMinTreeClearRestores is the reuse the ulam CDQ merge relies on:
// clearing every index updated since the tree was new leaves each prefix
// at (Inf, -1), and the tree then answers exactly like a new one.
func TestMinTreeClearRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50
	for trial := 0; trial < 100; trial++ {
		mt := NewMin(n)
		var updated []int
		for k := rng.Intn(40); k >= 0; k-- {
			i := rng.Intn(n)
			mt.Update(i, int64(rng.Intn(100)-50), int32(rng.Intn(1000)))
			updated = append(updated, i)
		}
		rng.Shuffle(len(updated), func(x, y int) { updated[x], updated[y] = updated[y], updated[x] })
		for _, i := range updated {
			mt.Clear(i)
		}
		for q := -1; q < n; q++ {
			if v, id := mt.PrefixMin(q); v != Inf || id != -1 {
				t.Fatalf("trial %d: after clearing, PrefixMin(%d) = (%d, %d), want (Inf, -1)", trial, q, v, id)
			}
		}
		fresh := NewMin(n)
		for step := 0; step < 60; step++ {
			i, v, id := rng.Intn(n), int64(rng.Intn(100)-50), int32(rng.Intn(1000))
			mt.Update(i, v, id)
			fresh.Update(i, v, id)
			q := rng.Intn(n)
			gv, gid := mt.PrefixMin(q)
			wv, wid := fresh.PrefixMin(q)
			if gv != wv || gid != wid {
				t.Fatalf("trial %d step %d: reused PrefixMin(%d) = (%d, %d), new tree (%d, %d)", trial, step, q, gv, gid, wv, wid)
			}
		}
	}
}

// TestNegatedPrefixMaxAgainstNaive takes a prefix maximum the way
// chain.LCSScore does, as the negated prefix minimum of negated values.
func TestNegatedPrefixMaxAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 48
	mt := NewMin(n)
	naive := make([]int64, n)
	for i := range naive {
		naive[i] = -Inf
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		v := int64(rng.Intn(1000)) - 500
		mt.Update(i, -v, int32(i))
		naive[i] = max(naive[i], v)
		q := rng.Intn(n)
		want := int64(-Inf)
		for j := 0; j <= q; j++ {
			want = max(want, naive[j])
		}
		if got, _ := mt.PrefixMin(q); -got != want {
			t.Fatalf("step %d: negated PrefixMin(%d) = %d, want prefix max %d", step, q, -got, want)
		}
	}
}

var sink *MinTree

// TestMinTreeAllocs pins the tree's footprint: NewMin allocates the tree
// and its two arrays, and Update, PrefixMin and Clear allocate nothing.
func TestMinTreeAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { sink = NewMin(100) }); a != 3 {
		t.Errorf("NewMin allocates %v times, want 3", a)
	}
	mt := NewMin(100)
	a := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i += 7 {
			mt.Update(i, int64(i), int32(i))
			mt.PrefixMin(i)
		}
		for i := 0; i < 100; i += 7 {
			mt.Clear(i)
		}
	})
	if a != 0 {
		t.Errorf("Update, PrefixMin and Clear allocate %v times, want 0", a)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Update": func() { NewMin(4).Update(4, 0, 0) },
		"Clear":  func() { NewMin(4).Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MinTree.%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}
