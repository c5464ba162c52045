package editdist

import (
	"math/rand"
	"sync"
	"testing"
)

// TestMyersPooledScratch interleaves patterns that leave different entries
// in a pooled match table, long and short and over different alphabets,
// with MyersMulti calls, from several goroutines at once, and checks every
// answer against the classic DP. An entry one pattern left set would
// corrupt the next pattern that draws the same table from the pool.
func TestMyersPooledScratch(t *testing.T) {
	alphabets := []string{"ACGT", "abcdefghijklmnopqrstuvwxyz", "\x00\x01\xfe\xff", "xy"}
	// 600 characters passes maxPooledWords: such tables are not pooled.
	lengths := []int{0, 1, 7, 63, 64, 65, 128, 200, 300, 600}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			draw := func() []byte {
				alpha := alphabets[rng.Intn(len(alphabets))]
				s := make([]byte, lengths[rng.Intn(len(lengths))])
				for i := range s {
					s[i] = alpha[rng.Intn(len(alpha))]
				}
				return s
			}
			for i := 0; i < 150; i++ {
				a, b := draw(), draw()
				if i%3 != 0 {
					if got, want := Myers(a, b, nil), Distance(a, b, nil); got != want {
						t.Errorf("Myers(|a|=%d, |b|=%d) = %d, want %d", len(a), len(b), got, want)
					}
					continue
				}
				ends := make([]int, 1+rng.Intn(6))
				for k := range ends {
					ends[k] = rng.Intn(len(b) + 1)
				}
				got := MyersMulti(a, b, ends, nil)
				for k, e := range ends {
					if want := Distance(a, b[:e], nil); got[k] != want {
						t.Errorf("MyersMulti(|a|=%d) end %d = %d, want %d", len(a), e, got[k], want)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
