package editdist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mpcdist/internal/stats"
)

// naive is an independent full-matrix reference implementation.
func naive(a, b []byte) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := 0; j <= len(b); j++ {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				d[i][j] = d[i-1][j-1]
			} else {
				m := d[i-1][j-1]
				if d[i-1][j] < m {
					m = d[i-1][j]
				}
				if d[i][j-1] < m {
					m = d[i][j-1]
				}
				d[i][j] = m + 1
			}
		}
	}
	return d[len(a)][len(b)]
}

func randBytes(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte('a' + rng.Intn(sigma))
	}
	return s
}

func TestDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"elephant", "relevant", 3}, // the paper's Section 2 example
		{"a", "b", 1},
		{"ab", "ba", 2},
	}
	for _, c := range cases {
		if got := Strings(c.a, c.b); got != c.want {
			t.Errorf("Strings(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceVsNaiveQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 80 {
			a = a[:80]
		}
		if len(b) > 80 {
			b = b[:80]
		}
		return Distance(a, b, nil) == naive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDistanceIntSlices(t *testing.T) {
	a := []int{1, 2, 3, 4}
	b := []int{1, 3, 4, 5}
	if got := Distance(a, b, nil); got != 2 {
		t.Errorf("Distance(ints) = %d, want 2", got)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		a := randBytes(rng, rng.Intn(40), 3)
		b := randBytes(rng, rng.Intn(40), 3)
		c := randBytes(rng, rng.Intn(40), 3)
		dab := Distance(a, b, nil)
		dba := Distance(b, a, nil)
		if dab != dba {
			t.Fatalf("not symmetric: %d vs %d", dab, dba)
		}
		if Distance(a, a, nil) != 0 {
			t.Fatalf("d(a,a) != 0")
		}
		dac := Distance(a, c, nil)
		dbc := Distance(b, c, nil)
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: d(a,c)=%d > %d+%d", dac, dab, dbc)
		}
		ldiff := len(a) - len(b)
		if ldiff < 0 {
			ldiff = -ldiff
		}
		if dab < ldiff {
			t.Fatalf("distance below length difference")
		}
		if dab > max(len(a), len(b)) {
			t.Fatalf("distance above max length")
		}
	}
}

func TestOpsCharged(t *testing.T) {
	var ops stats.Ops
	Distance([]byte("abcdef"), []byte("ghij"), &ops)
	if got := ops.Count(); got != 24 {
		t.Errorf("ops = %d, want 24", got)
	}
}

func TestBandedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		a := randBytes(rng, rng.Intn(50), 4)
		b := randBytes(rng, rng.Intn(50), 4)
		want := Distance(a, b, nil)
		for _, k := range []int{0, 1, 2, 5, 10, 100} {
			got, ok := Banded(a, b, k, nil)
			if want <= k {
				if !ok || got != want {
					t.Fatalf("Banded(k=%d) = (%d,%v), want (%d,true) for %q %q", k, got, ok, want, a, b)
				}
			} else if ok || got != k+1 {
				t.Fatalf("Banded(k=%d) = (%d,%v), want (%d,false); true d=%d", k, got, ok, k+1, want)
			}
		}
	}
}

func TestBandedNegativeThreshold(t *testing.T) {
	if _, ok := Banded([]byte("a"), []byte("a"), -1, nil); ok {
		t.Error("Banded with k<0 must report false")
	}
}

func TestBoundedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		a := randBytes(rng, rng.Intn(60), 4)
		b := randBytes(rng, rng.Intn(60), 4)
		want := Distance(a, b, nil)
		for _, bound := range []int{0, 1, 3, 7, 20, 200} {
			got := BoundedDistance(a, b, bound, nil)
			if want <= bound && got != want {
				t.Fatalf("BoundedDistance(bound=%d) = %d, want %d", bound, got, want)
			}
			if want > bound && got != bound+1 {
				t.Fatalf("BoundedDistance(bound=%d) = %d, want %d (capped)", bound, got, bound+1)
			}
		}
	}
}

func TestMyersVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 150; trial++ {
		// Cover single-word (<=64) and multi-word (>64) pattern lengths.
		n := rng.Intn(200)
		m := rng.Intn(200)
		a := randBytes(rng, n, 4)
		b := randBytes(rng, m, 4)
		if got, want := Myers(a, b, nil), Distance(a, b, nil); got != want {
			t.Fatalf("Myers = %d, want %d (|a|=%d |b|=%d)", got, want, n, m)
		}
	}
}

func TestMyersEdges(t *testing.T) {
	if got := Myers(nil, []byte("xyz"), nil); got != 3 {
		t.Errorf("Myers(empty, xyz) = %d, want 3", got)
	}
	if got := Myers([]byte("xyz"), nil, nil); got != 3 {
		t.Errorf("Myers(xyz, empty) = %d, want 3", got)
	}
	// Exactly one word.
	a := randBytes(rand.New(rand.NewSource(8)), 64, 2)
	b := randBytes(rand.New(rand.NewSource(9)), 64, 2)
	if got, want := Myers(a, b, nil), Distance(a, b, nil); got != want {
		t.Errorf("Myers 64 = %d, want %d", got, want)
	}
	// Exactly 65 (word boundary).
	a = randBytes(rand.New(rand.NewSource(10)), 65, 2)
	if got, want := Myers(a, b, nil), Distance(a, b, nil); got != want {
		t.Errorf("Myers 65 = %d, want %d", got, want)
	}
}

func TestScriptOptimalAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 150; trial++ {
		a := randBytes(rng, rng.Intn(50), 3)
		b := randBytes(rng, rng.Intn(50), 3)
		script := Script(a, b)
		if err := Validate(a, b, script); err != nil {
			t.Fatalf("invalid script for %q -> %q: %v", a, b, err)
		}
		if got, want := Cost(script), Distance(a, b, nil); got != want {
			t.Fatalf("script cost %d, want optimal %d for %q -> %q", got, want, a, b)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a, b := []byte("abc"), []byte("abd")
	script := Script(a, b)
	if err := Validate(a, b, script); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	bad := append([]Op{}, script...)
	bad[0].Kind = Insert
	if err := Validate(a, b, bad); err == nil {
		t.Error("corrupted script accepted")
	}
	if err := Validate(a, b, script[:len(script)-1]); err == nil {
		t.Error("truncated script accepted")
	}
}

func TestOpKindString(t *testing.T) {
	if Match.String() != "match" || Substitute.String() != "sub" ||
		Insert.String() != "ins" || Delete.String() != "del" {
		t.Error("OpKind.String labels wrong")
	}
	if OpKind(99).String() == "" {
		t.Error("unknown OpKind should still format")
	}
}

func TestMyersMultiMatchesPerPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 80; trial++ {
		a := randBytes(rng, rng.Intn(150), 3)
		b := randBytes(rng, rng.Intn(150), 3)
		var ends []int
		for e := 0; e <= len(b); e += 1 + rng.Intn(5) {
			ends = append(ends, e)
		}
		// Duplicates and unsorted order must work.
		if len(ends) > 1 {
			ends = append(ends, ends[0])
			ends[0], ends[len(ends)-2] = ends[len(ends)-2], ends[0]
		}
		got := MyersMulti(a, b, ends, nil)
		for i, e := range ends {
			want := Distance(a, b[:e], nil)
			if got[i] != want {
				t.Fatalf("MyersMulti end %d = %d, want %d (|a|=%d)", e, got[i], want, len(a))
			}
		}
	}
}

func TestMyersMultiEdges(t *testing.T) {
	if got := MyersMulti(nil, []byte("xy"), []int{0, 1, 2}, nil); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("empty pattern: %v", got)
	}
	if got := MyersMulti([]byte("ab"), []byte("ab"), nil, nil); len(got) != 0 {
		t.Errorf("no ends: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range end did not panic")
		}
	}()
	MyersMulti([]byte("a"), []byte("b"), []int{5}, nil)
}

func TestFormatAlignment(t *testing.T) {
	a, b := []byte("kitten"), []byte("sitting")
	out := FormatAlignment(a, b, Script(a, b), 80)
	lines := splitLines(out)
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("rows unequal:\n%s", out)
	}
	// Matches marked |, subs *, indels with dashes.
	nMatch, nSub := 0, 0
	for i := range lines[1] {
		switch lines[1][i] {
		case '|':
			nMatch++
			if lines[0][i] != lines[2][i] {
				t.Errorf("column %d marked match but chars differ", i)
			}
		case '*':
			nSub++
		case ' ':
			if lines[0][i] != '-' && lines[2][i] != '-' {
				t.Errorf("column %d marked indel but no dash", i)
			}
		}
	}
	if nSub != 2 || nMatch != 4 {
		t.Errorf("kitten->sitting: %d subs %d matches, want 2/4", nSub, nMatch)
	}
	// Wrapping.
	wrapped := FormatAlignment(a, b, Script(a, b), 8)
	if len(splitLines(wrapped)) < 3 {
		t.Errorf("wrapped output too short:\n%s", wrapped)
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
