package trace

import (
	"sort"
	"time"
)

// SkewStats summarizes the distribution of per-machine execution times
// within a round. Straggler is Max/Mean — 1.0 means perfectly balanced
// machines; large values mean the round's wall time is dominated by a
// straggler, the effect that separates the paper's "total work" from its
// "parallel time" column.
type SkewStats struct {
	Max       time.Duration
	Mean      time.Duration
	P99       time.Duration
	Straggler float64
}

// Summarize computes the skew statistics of a set of machine times. It
// returns the zero value for an empty set. P99 is the nearest-rank 99th
// percentile (the max for fewer than 100 machines).
func Summarize(times []time.Duration) SkewStats {
	if len(times) == 0 {
		return SkewStats{}
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	st := SkewStats{
		Max:  sorted[len(sorted)-1],
		Mean: sum / time.Duration(len(sorted)),
		P99:  nearestRank(sorted, 99),
	}
	if st.Mean > 0 {
		st.Straggler = float64(st.Max) / float64(st.Mean)
	} else if st.Max == 0 {
		// All-zero times (degenerately fast machines): balanced by definition.
		st.Straggler = 1
	}
	return st
}

// DurationQuantiles holds nearest-rank p50/p95/p99 over a duration set —
// the summary shape the flight recorder's rolling round-latency window,
// the bench suite's advisory per-case quantiles and the transport's
// heartbeat RTT p99 share.
type DurationQuantiles struct {
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration
}

// Quantiles computes nearest-rank quantiles (ceil(q·n) as a 1-based rank,
// like Summarize's P99) over times; zero value for an empty set.
func Quantiles(times []time.Duration) DurationQuantiles {
	if len(times) == 0 {
		return DurationQuantiles{}
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return DurationQuantiles{P50: nearestRank(sorted, 50), P95: nearestRank(sorted, 95),
		P99: nearestRank(sorted, 99)}
}

// nearestRank is the nearest-rank q-th percentile of sorted, ascending and
// non-empty, for q in [1, 100]: the element of 1-based rank ceil(q·n/100).
func nearestRank(sorted []time.Duration, q int) time.Duration {
	return sorted[(q*len(sorted)+99)/100-1]
}
