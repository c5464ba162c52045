package ulam

import (
	"math/rand"
	"testing"
)

// windowDistsAgree checks one Pricer.WindowDists call against WindowDist
// at every end.
func windowDistsAgree(t *testing.T, w *Pricer, sp int, ends []int) {
	t.Helper()
	got := w.WindowDists(sp, ends, nil)
	if len(got) != len(ends) {
		t.Fatalf("WindowDists returned %d values for %d ends", len(got), len(ends))
	}
	for k, e := range ends {
		if want := WindowDist(w.blockLen, w.pairs, sp, e, nil); got[k] != want {
			t.Fatalf("WindowDists(sp=%d) end %d = %d, WindowDist = %d (blockLen=%d pairs=%v ends=%v)",
				sp, e, got[k], want, w.blockLen, w.pairs, ends)
		}
	}
}

// FuzzWindowDists checks Pricer.WindowDists against WindowDist at every
// end, with the DP's quadratic cutoff both at its default and at 0 (the
// CDQ path). One Pricer prices a sequence of starts, so that its reused
// buffers and Fenwick trees serve windows with more and with fewer
// points, and more and fewer ends, than the call before. rawStarts holds
// (start, count) byte pairs: each start takes the next count%41 ends, up
// to 40 in one call, and a last start with no count byte takes every end
// left. Ends may be unsorted, repeated or below the start (empty
// windows); starts run up to one past sbar's end, past every pair.
func FuzzWindowDists(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{9, 3, 1, 2, 4}, []byte{1, 5, 3, 2, 0}, []byte{4, 2, 2, 0, 3, 1, 4, 0, 2, 3})
	f.Add([]byte("cab"), []byte("abcdefg"), []byte{0, 3, 7, 1, 2}, []byte{6, 1, 9, 3, 5, 0})
	f.Add([]byte{7, 6, 5, 4}, []byte{4, 5, 6, 7}, []byte{2, 2, 4, 0, 0}, []byte{1, 3, 2})
	f.Add([]byte("interleaved"), []byte("characters drive both"), []byte{5, 6, 0, 2, 19, 5, 21},
		[]byte{20, 5, 5, 12, 0, 18, 7, 2, 20, 1, 1, 9, 14, 3, 8})
	// Every pair at the front of sbar: later starts see no pair at all.
	f.Add([]byte("abc"), []byte("abcdefghij"), []byte{0, 2, 6, 3, 10, 2, 1}, []byte{9, 2, 8, 8, 0, 5, 3, 9, 1})
	// One start prices 40 ends, the next fewer on the same buffers.
	many := make([]byte, 48)
	for i := range many {
		many[i] = byte(7 * i)
	}
	f.Add([]byte("interleaved"), []byte("characters drive both"), []byte{2, 40, 9}, many)
	f.Fuzz(func(t *testing.T, rawBlock, rawSbar, rawStarts, rawEnds []byte) {
		block := distinctSeq(rawBlock, 40)
		sbar := distinctSeq(rawSbar, 60)
		if len(sbar) == 0 || len(rawStarts) > 24 || len(rawEnds) > 80 {
			return
		}
		pairs := PairsOf(block, sbar)
		old := QuadCutoff
		defer func() { QuadCutoff = old }()
		for _, cut := range []int{old, 0} {
			QuadCutoff = cut
			w := NewPricer(len(block), pairs)
			rest := rawEnds
			for k := 0; k < len(rawStarts); k += 2 {
				sp := int(rawStarts[k]) % (len(sbar) + 1)
				cnt := len(rest)
				if k+1 < len(rawStarts) {
					cnt = min(int(rawStarts[k+1])%41, cnt)
				}
				ends := make([]int, cnt)
				for i, e := range rest[:cnt] {
					ends[i] = int(e) % len(sbar)
				}
				rest = rest[cnt:]
				windowDistsAgree(t, w, sp, ends)
			}
		}
	})
}

func TestWindowDistsRandom(t *testing.T) {
	old := QuadCutoff
	defer func() { QuadCutoff = old }()
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 300; trial++ {
		QuadCutoff = []int{old, 0}[trial%2]
		u := 120
		block := randDistinct(rng, 1+rng.Intn(40), u)
		sbar := randDistinct(rng, 1+rng.Intn(80), u)
		w := NewPricer(len(block), PairsOf(block, sbar))
		for range 3 {
			sp := rng.Intn(len(sbar))
			ends := make([]int, rng.Intn(12))
			for k := range ends {
				ends[k] = sp - 3 + rng.Intn(len(sbar)-sp+3)
			}
			windowDistsAgree(t, w, sp, ends)
		}
	}
}
