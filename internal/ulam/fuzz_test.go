package ulam

import (
	"testing"

	"mpcdist/internal/editdist"
)

// distinctFromBytes deterministically turns fuzz bytes into two
// distinct-character sequences: character identities come from positions
// in a shared shuffle driven by the input bytes.
func distinctFromBytes(data []byte) (a, b []int) {
	seen := map[int]bool{}
	for i, c := range data {
		v := int(c)
		if i%2 == 0 {
			if !seen[v] {
				seen[v] = true
				a = append(a, v)
			}
		}
	}
	seenB := map[int]bool{}
	for i, c := range data {
		v := int(c)
		if i%2 == 1 {
			if !seenB[v] {
				seenB[v] = true
				b = append(b, v)
			}
		}
	}
	return a, b
}

// distinctSeq dedupes fuzz bytes into a sequence of distinct characters,
// preserving first-occurrence order and capping the length.
func distinctSeq(data []byte, maxLen int) []int {
	seen := map[int]bool{}
	var s []int
	for _, c := range data {
		v := int(c)
		if !seen[v] {
			seen[v] = true
			s = append(s, v)
			if len(s) == maxLen {
				break
			}
		}
	}
	return s
}

// FuzzLocalMinimalOverWindows brute-forces the definition of the paper's
// lulam: Local(block, sbar) must equal the minimum, over every substring
// w of sbar plus the empty substring (at cost |block|), of the exact Ulam
// distance between block and w — each window checked with the reference
// quadratic DP. The sibling target below only verifies that the reported
// window attains the reported value; this one verifies minimality.
func FuzzLocalMinimalOverWindows(f *testing.F) {
	addLocalSeeds(f)
	f.Fuzz(checkLocalMinimal)
}

// FuzzLocalMinimalOverWindowsCDQ is FuzzLocalMinimalOverWindows with
// QuadCutoff 0, so that Local and Script run the CDQ DP: its blocks of at
// most 8 characters give at most 10 DP points, which the default cutoff
// hands to the quadratic DP. It fuzzes the local sentinel diagonals and
// the parent links set across merges, which localWindow reads.
func FuzzLocalMinimalOverWindowsCDQ(f *testing.F) {
	addLocalSeeds(f)
	f.Fuzz(func(t *testing.T, rawBlock, rawSbar []byte) {
		old := QuadCutoff
		QuadCutoff = 0
		defer func() { QuadCutoff = old }()
		checkLocalMinimal(t, rawBlock, rawSbar)
	})
}

func addLocalSeeds(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{9, 3, 1, 2, 4})
	f.Add([]byte("cab"), []byte("abcdefg"))
	f.Add([]byte{7, 6, 5, 4}, []byte{4, 5, 6, 7})
	f.Add([]byte{1}, []byte{})
}

func checkLocalMinimal(t *testing.T, rawBlock, rawSbar []byte) {
	block := distinctSeq(rawBlock, 8)
	sbar := distinctSeq(rawSbar, 20)
	if len(block) == 0 {
		return
	}
	got, win := Local(block, sbar, nil)
	want := len(block) // the empty window
	for g := 0; g < len(sbar); g++ {
		for k := g; k < len(sbar); k++ {
			if d := ExactQuadratic(block, sbar[g:k+1], nil); d < want {
				want = d
			}
		}
	}
	if got != want {
		t.Fatalf("Local = %d, brute-force minimum = %d (block=%v sbar=%v)", got, want, block, sbar)
	}
	if win.Len() > 0 {
		if d := ExactQuadratic(block, sbar[win.Gamma:win.Kappa+1], nil); d != got {
			t.Fatalf("reported window [%d,%d] costs %d, not the reported %d", win.Gamma, win.Kappa, d, got)
		}
	} else if got != len(block) {
		t.Fatalf("empty window reported but Local = %d != |block| = %d", got, len(block))
	}
	// Script on the same pair must cost exactly the DP distance.
	if script := Script(block, sbar, nil); editdist.Cost(script) != ExactQuadratic(block, sbar, nil) {
		t.Fatalf("Script cost %d != DP distance %d", editdist.Cost(script), ExactQuadratic(block, sbar, nil))
	}
}

func FuzzUlamAgreesWithEditDistance(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte("interleaved characters drive both sequences"))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160]
		}
		a, b := distinctFromBytes(data)
		want := editdist.Distance(a, b, nil)
		if got := Exact(a, b, nil); got != want {
			t.Fatalf("Exact = %d, want %d (a=%v b=%v)", got, want, a, b)
		}
		if got := ExactQuadratic(a, b, nil); got != want {
			t.Fatalf("ExactQuadratic = %d, want %d", got, want)
		}
		script := Script(a, b, nil)
		if err := editdist.Validate(a, b, script); err != nil {
			t.Fatalf("script invalid: %v", err)
		}
		if editdist.Cost(script) != want {
			t.Fatalf("script cost %d, want %d", editdist.Cost(script), want)
		}
		// Local <= distance to any window, and windows attain their value.
		if len(a) > 0 {
			d, win := Local(a, b, nil)
			if d > len(a) {
				t.Fatalf("Local %d > |block| %d", d, len(a))
			}
			if win.Len() > 0 {
				if dd := Exact(a, b[win.Gamma:win.Kappa+1], nil); dd != d {
					t.Fatalf("window distance %d != reported %d", dd, d)
				}
			}
		}
	})
}
