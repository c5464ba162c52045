package editdist

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mpcdist/internal/stats"
)

// Fuzz targets cross-check every exact kernel against the classic DP.
// Under plain `go test` they run their seed corpus; use
// `go test -fuzz=FuzzKernelsAgree ./internal/editdist` to explore.

func FuzzKernelsAgree(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"))
	f.Add([]byte(""), []byte("abc"))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("aba"))
	f.Add([]byte("xyxyxyxy"), []byte("yxyxyxyx"))
	f.Add(bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("ba"), 41))
	// Long common runs, so that the diagonal kernel's LCE scans cross whole
	// words before they stop.
	run := bytes.Repeat([]byte("acgtacg"), 9)
	f.Add(run, append(bytes.Clone(run[:30]), run[31:]...))
	f.Add(append(bytes.Clone(run), "xyz"...), append([]byte("x"), run...))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick brown fox jumped over the lazy dog"))
	f.Add(bytes.Repeat([]byte("a"), 33), append(bytes.Repeat([]byte("a"), 17), 'b'))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 300 {
			a = a[:300]
		}
		if len(b) > 300 {
			b = b[:300]
		}
		want := Distance(a, b, nil)
		if got := Myers(a, b, nil); got != want {
			t.Fatalf("Myers = %d, want %d", got, want)
		}
		if got := DiagonalTransition(a, b, nil); got != want {
			t.Fatalf("DiagonalTransition = %d, want %d", got, want)
		}
		if got := BoundedDistance(a, b, want, nil); got != want {
			t.Fatalf("BoundedDistance = %d, want %d", got, want)
		}
		if d, ok := Banded(a, b, want, nil); !ok || d != want {
			t.Fatalf("Banded = (%d,%v), want (%d,true)", d, ok, want)
		}
		script := Script(a, b)
		if err := Validate(a, b, script); err != nil {
			t.Fatalf("script invalid: %v", err)
		}
		if Cost(script) != want {
			t.Fatalf("script cost %d, want %d", Cost(script), want)
		}
	})
}

// FuzzMyersMulti holds MyersMulti to the classic DP per end, with the ends
// in the order shuffle picks and some repeated, as callers pass cand.Ends'
// interleaved ladder (kappa, kappa+1, kappa-1, ...), and to its op charge,
// one unit per pattern word and character up to the longest end. It then
// prices a shorter prefix of b with the state the pool hands back, so
// that an end mark one call leaves behind fails the next.
func FuzzMyersMulti(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"), uint8(3), uint64(0))
	f.Add([]byte(""), []byte("x"), uint8(1), uint64(0))
	f.Add([]byte("hello"), []byte("yellow fellow"), uint8(2), uint64(1))
	f.Add([]byte("acgtacgt"), []byte("cgtacgatacgt"), uint8(1), uint64(7))
	f.Add(bytes.Repeat([]byte("acg"), 30), bytes.Repeat([]byte("gtca"), 40), uint8(5), uint64(3))
	f.Fuzz(func(t *testing.T, a, b []byte, step uint8, shuffle uint64) {
		if len(a) > 200 {
			a = a[:200]
		}
		if len(b) > 200 {
			b = b[:200]
		}
		st := int(step%7) + 1
		var ends []int
		for e := 0; e <= len(b); e += st {
			ends = append(ends, e)
		}
		if shuffle != 0 {
			rng := rand.New(rand.NewSource(int64(shuffle)))
			for k := len(ends) / 2; k > 0; k-- {
				ends = append(ends, ends[rng.Intn(len(ends))])
			}
			rng.Shuffle(len(ends), func(i, j int) { ends[i], ends[j] = ends[j], ends[i] })
		}
		prefix := len(b) / 3
		short := make([]int, len(ends))
		for i, e := range ends {
			short[i] = e % (prefix + 1)
		}
		for _, c := range []struct {
			b    []byte
			ends []int
		}{{b, ends}, {b[:prefix], short}} {
			var ops stats.Ops
			got := MyersMulti(a, c.b, c.ends, &ops)
			for i, e := range c.ends {
				if want := Distance(a, c.b[:e], nil); got[i] != want {
					t.Fatalf("MyersMulti(b[:%d])[%d] = %d, want %d", len(c.b), e, got[i], want)
				}
			}
			want := int64(0)
			if len(a) > 0 {
				want = int64((len(a)+wordBits-1)/wordBits) * int64(slices.Max(c.ends))
			}
			if ops.Count() != want {
				t.Fatalf("MyersMulti(b[:%d]) charged %d ops, want %d", len(c.b), ops.Count(), want)
			}
		}
	})
}
