package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a timing sample's median and spread. P90 is withheld, with
// the reason in P90Why, when fewer than ten samples lie beyond it.
type summary struct {
	N           int
	P50, Q1, Q3 float64
	P90         float64
	P90Why      string
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile of sorted (non-empty):
// the smallest sample with at least q·n samples at or below it. The second
// result is how many samples lie beyond it.
func nearestRank(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	k = min(max(k, 1), n)
	return sorted[k-1], n - k
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{P90Why: "no samples"}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s)}
	sum.P50, _ = nearestRank(s, 0.5)
	sum.Q1, _ = nearestRank(s, 0.25)
	sum.Q3, _ = nearestRank(s, 0.75)
	p90, beyond := nearestRank(s, 0.9)
	if beyond < minBeyond {
		sum.P90Why = fmt.Sprintf("withheld: %d of %d samples lie beyond it, %d needed", beyond, len(s), minBeyond)
	} else {
		sum.P90 = p90
	}
	return sum
}

func (s summary) String() string {
	p90 := fmt.Sprintf("p90 %.3f", s.P90)
	if s.P90Why != "" {
		p90 = "p90 " + s.P90Why
	}
	return fmt.Sprintf("p50 %.3f (q1 %.3f, q3 %.3f, n=%d), %s", s.P50, s.Q1, s.Q3, s.N, p90)
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// percentile is the nearest-rank q-quantile of xs (non-empty) with no
// minimum on the samples beyond it: it suits evenly spaced readings of a
// level, such as the resident set, where a latency tail needs ten samples.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := nearestRank(s, q)
	return v
}
