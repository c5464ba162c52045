package ulam

import (
	"math/rand"
	"testing"
)

// windowDistsAgree checks WindowDists against WindowDist at every end.
func windowDistsAgree(t *testing.T, blockLen int, pairs []Pair, sp int, ends []int) {
	t.Helper()
	got := WindowDists(blockLen, pairs, sp, ends, nil)
	if len(got) != len(ends) {
		t.Fatalf("WindowDists returned %d values for %d ends", len(got), len(ends))
	}
	for k, e := range ends {
		if want := WindowDist(blockLen, pairs, sp, e, nil); got[k] != want {
			t.Fatalf("WindowDists(sp=%d) end %d = %d, WindowDist = %d (blockLen=%d pairs=%v ends=%v)",
				sp, e, got[k], want, blockLen, pairs, ends)
		}
	}
}

// FuzzWindowDists checks WindowDists against WindowDist at every end, on
// unsorted and repeated ends, ends below the start, and with the DP's
// quadratic cutoff both at its default and at 0 (the CDQ path).
func FuzzWindowDists(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{9, 3, 1, 2, 4}, uint8(1), []byte{4, 2, 2, 0, 3})
	f.Add([]byte("cab"), []byte("abcdefg"), uint8(0), []byte{6, 1, 9})
	f.Add([]byte{7, 6, 5, 4}, []byte{4, 5, 6, 7}, uint8(2), []byte{1, 3})
	f.Add([]byte("interleaved"), []byte("characters drive both"), uint8(5), []byte{20, 5, 5, 12, 0, 18})
	f.Fuzz(func(t *testing.T, rawBlock, rawSbar []byte, rawSp uint8, rawEnds []byte) {
		block := distinctSeq(rawBlock, 40)
		sbar := distinctSeq(rawSbar, 60)
		if len(sbar) == 0 || len(rawEnds) > 40 {
			return
		}
		pairs := PairsOf(block, sbar)
		sp := int(rawSp) % len(sbar)
		ends := make([]int, len(rawEnds))
		for k, e := range rawEnds {
			ends[k] = int(e) % len(sbar)
		}
		old := QuadCutoff
		defer func() { QuadCutoff = old }()
		for _, cut := range []int{old, 0} {
			QuadCutoff = cut
			windowDistsAgree(t, len(block), pairs, sp, ends)
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
		sp := rng.Intn(len(sbar))
		ends := make([]int, rng.Intn(12))
		for k := range ends {
			ends[k] = sp - 3 + rng.Intn(len(sbar)-sp+3)
		}
		windowDistsAgree(t, len(block), PairsOf(block, sbar), sp, ends)
	}
}
