//go:build !race

// sync.Pool drops a random share of its Puts under the race detector, so
// this check runs only without it.

package editdist

import "testing"

// TestMyersNoAllocs checks that Myers allocates nothing once the pool
// holds a match table.
func TestMyersNoAllocs(t *testing.T) {
	a, b := []byte("GATTACAGATTACAGATTACA"), []byte("the quick brown fox jumps over the lazy dog")
	Myers(a, b, nil)
	if n := testing.AllocsPerRun(100, func() { Myers(a, b, nil) }); n != 0 {
		t.Errorf("Myers allocates %v times per call after warm-up, want 0", n)
	}
}
