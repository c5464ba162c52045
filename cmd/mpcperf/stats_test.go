package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeNearestRank(t *testing.T) {
	s := summarize(seq(10))
	if s.N != 10 || s.P50 != 5 || s.Q1 != 3 || s.Q3 != 8 {
		t.Errorf("summarize(1..10) = %+v, want n=10 p50=5 q1=3 q3=8", s)
	}
	if one := summarize([]float64{7}); one.P50 != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Errorf("summarize([7]) = %+v", one)
	}
	if empty := summarize(nil); empty.N != 0 || empty.P90Why == "" {
		t.Errorf("summarize(nil) = %+v, want no samples and a reason", empty)
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	s := summarize(seq(100))
	if s.P90Why != "" || s.P90 != 90 {
		t.Errorf("n=100: p90 = %v (%q), want 90 with 10 samples beyond", s.P90, s.P90Why)
	}
	for _, n := range []int{99, 10, 1} {
		s := summarize(seq(n))
		if s.P90 != 0 || !strings.Contains(s.P90Why, "withheld") {
			t.Errorf("n=%d: p90 = %v (%q), want it withheld with a reason", n, s.P90, s.P90Why)
		}
	}
	if s := summarize(seq(99)); !strings.Contains(s.P90Why, "9 of 99") {
		t.Errorf("n=99: reason %q should say 9 of 99 samples lie beyond", s.P90Why)
	}
}

func TestPercentileHasNoTailMinimum(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 9}, {83, 75}, {1, 1}} {
		if got := percentile(seq(c.n), 0.9); got != c.want {
			t.Errorf("percentile(1..%d, 0.9) = %v, want %v", c.n, got, c.want)
		}
	}
}
