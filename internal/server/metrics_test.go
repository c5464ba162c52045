package server

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket assignment rule: an
// observation exactly at an upper bound belongs to that bucket (ms <= ub),
// and anything beyond the last bound lands in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram()
	if len(h.Buckets) != len(latencyBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d (+Inf included)", len(h.Buckets), len(latencyBuckets)+1)
	}
	// One observation exactly at every upper bound...
	for _, ub := range latencyBuckets {
		h.observe(ub)
	}
	for i, ub := range latencyBuckets {
		if h.Buckets[i] != 1 {
			t.Errorf("bucket[%d] (ub=%v) = %d, want 1 — boundary value must land in its own bucket", i, ub, h.Buckets[i])
		}
	}
	if inf := h.Buckets[len(latencyBuckets)]; inf != 0 {
		t.Errorf("+Inf bucket = %d, want 0 before any overflow", inf)
	}

	// ...then overflow past the last bound.
	last := latencyBuckets[len(latencyBuckets)-1]
	h.observe(last + 0.001)
	h.observe(1e9)
	if inf := h.Buckets[len(latencyBuckets)]; inf != 2 {
		t.Errorf("+Inf bucket = %d, want 2", inf)
	}
	if h.Count != uint64(len(latencyBuckets))+2 {
		t.Errorf("count = %d, want %d", h.Count, len(latencyBuckets)+2)
	}
	if h.MaxMs != 1e9 {
		t.Errorf("max = %v, want 1e9", h.MaxMs)
	}

	// A value just above a bound belongs to the next bucket.
	h2 := newHistogram()
	h2.observe(latencyBuckets[0] + 1e-9)
	if h2.Buckets[0] != 0 || h2.Buckets[1] != 1 {
		t.Errorf("just-above-bound observation: buckets[0]=%d buckets[1]=%d, want 0, 1", h2.Buckets[0], h2.Buckets[1])
	}
}

// TestHistogramCloneIsDeep ensures a clone does not share bucket storage
// with the live histogram — the snapshot path depends on it.
func TestHistogramCloneIsDeep(t *testing.T) {
	h := newHistogram()
	h.observe(0.05)
	c := h.clone()
	h.observe(0.05)
	if c.Buckets[0] != 1 {
		t.Errorf("clone bucket mutated through the original: %d, want 1", c.Buckets[0])
	}
	if h.Buckets[0] != 2 {
		t.Errorf("original bucket = %d, want 2", h.Buckets[0])
	}
}

// TestMetricsConcurrentObserveSnapshot drives query records and Snapshot
// from racing goroutines; under -race this is the registry's thread-safety
// check, and the final snapshot must account for every observation.
func TestMetricsConcurrentObserveSnapshot(t *testing.T) {
	m := NewMetrics()
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Mix boundary and overflow values across racing writers.
				ms := latencyBuckets[i%len(latencyBuckets)]
				o := outcome{algo: "edit-mpc", elapsed: time.Duration(ms * float64(time.Millisecond)), answer: &Answer{Cached: i%3 == 0}}
				m.update(o.count)
				if i%17 == 0 {
					snap := m.Snapshot()
					// Read through the clone to catch shared storage.
					if st := snap.Algorithms["edit-mpc"]; st != nil {
						_ = st.Latency.Buckets[0]
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot()
	st := snap.Algorithms["edit-mpc"]
	if st == nil {
		t.Fatal("no edit-mpc stats")
	}
	if want := uint64(goroutines * each); st.Requests != want || st.Latency.Count != want {
		t.Errorf("requests=%d latencyCount=%d, want %d", st.Requests, st.Latency.Count, want)
	}
	var sum uint64
	for _, n := range st.Latency.Buckets {
		sum += n
	}
	if sum != st.Latency.Count {
		t.Errorf("bucket sum %d != count %d", sum, st.Latency.Count)
	}
}
