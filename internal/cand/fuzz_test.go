package cand

import (
	"math"
	"slices"
	"testing"
)

// endsWithMap is Ends as it was when a map deduplicated its ladder: the
// reference FuzzEnds holds Ends to, order included.
func endsWithMap(gamma, blockLen, m int, eps float64, maxLen, deltaCap int) []int {
	if m <= 0 || blockLen <= 0 {
		return nil
	}
	if maxLen < 1 {
		maxLen = 1
	}
	kappa := gamma + blockLen - 1
	seen := make(map[int]bool)
	var out []int
	add := func(e int) {
		if e < gamma || e > m-1 {
			return
		}
		if e-gamma+1 > maxLen {
			return
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	add(kappa)
	if eps <= 0 {
		eps = 0.5
	}
	step := 1.0
	for {
		off := int(step)
		if off > deltaCap && off > maxLen {
			break
		}
		if off >= 1 {
			if off <= deltaCap {
				add(kappa + off)
			}
			add(kappa - off)
		}
		next := step * (1 + eps)
		if int(next) == int(step) {
			next = step + 1
		}
		step = next
		if step > float64(m)+float64(maxLen) {
			break
		}
	}
	add(gamma)
	return out
}

// FuzzEnds checks that Ends, which relies on its ladder never repeating an
// end, returns what the map-deduplicated version returned, in the same
// order, and that AppendEnds onto a non-empty buffer leaves the buffer as
// it was and appends exactly Ends: on a buffer of other ends, and on one
// that already holds gamma, whose length-1 window must still be appended.
// Under plain `go test` it runs its seed corpus; use
// `go test -fuzz=FuzzEnds ./internal/cand` to explore. The int16
// arguments keep the ladder short enough for the engine to run fast.
func FuzzEnds(f *testing.F) {
	f.Add(int16(40), int16(16), int16(200), 0.5, int16(64), int16(100))
	f.Add(int16(10), int16(1), int16(50), 0.5, int16(20), int16(20))  // blockLen 1: kappa is gamma
	f.Add(int16(10), int16(8), int16(50), 0.5, int16(0), int16(20))   // maxLen < 1
	f.Add(int16(10), int16(8), int16(50), -1.0, int16(30), int16(20)) // eps ≤ 0
	f.Add(int16(10), int16(8), int16(50), 0.0, int16(30), int16(20))
	f.Add(int16(10), int16(8), int16(50), 0.25, int16(30), int16(-3)) // deltaCap < 0
	f.Add(int16(0), int16(4), int16(1), 0.5, int16(4), int16(4))      // m = 1
	f.Add(int16(30), int16(5), int16(40), 1e-9, int16(40), int16(40))
	f.Add(int16(3), int16(20), int16(400), 3.0, int16(300), int16(5))
	f.Fuzz(func(t *testing.T, gamma, blockLen, m int16, eps float64, maxLen, deltaCap int16) {
		if math.IsNaN(eps) {
			t.Skip("NaN eps never stops the ladder; CheckParams rejects it")
		}
		args := []int{int(gamma), int(blockLen), int(m), int(maxLen), int(deltaCap)}
		want := endsWithMap(args[0], args[1], args[2], eps, args[3], args[4])
		got := Ends(args[0], args[1], args[2], eps, args[3], args[4])
		if !slices.Equal(got, want) {
			t.Fatalf("Ends(%v, eps %v) = %v, want %v", args, eps, got, want)
		}
		for _, dst := range [][]int{{-7, 3, 1 << 20}, {args[0]}, {args[0], args[0] + args[1] - 1}} {
			appended := AppendEnds(slices.Clone(dst), args[0], args[1], args[2], eps, args[3], args[4])
			if !slices.Equal(appended, slices.Concat(dst, want)) {
				t.Fatalf("AppendEnds(%v, %v, eps %v) = %v, want %v then %v", dst, args, eps, appended, dst, want)
			}
		}
	})
}
