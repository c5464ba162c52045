package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// probeHost times a fixed loop that uses nothing of the program, so it
// moves only when the host does: sha256 over a fixed 4 MiB buffer, 8 times
// on each of GOMAXPROCS goroutines (the workloads use every core). It
// returns the median of three timings in ms.
func probeHost() float64 {
	buf := make([]byte, 4<<20)
	var calib []float64
	for r := 0; r < 3; r++ {
		calib = append(calib, shaLoop(buf))
	}
	return median(calib)
}

func shaLoop(buf []byte) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				sha256.Sum256(buf)
			}
		}()
	}
	wg.Wait()
	return ms(time.Since(start))
}

// heapPoll is how often heapWatch looks for a finished GC cycle. Cycles end
// about 15 ms apart or more on average on every workload, so it misses few.
const heapPoll = 2 * time.Millisecond

// heapWatch records, for every GC cycle that ends while it runs, the heap
// the collector found live (runtime/metrics /gc/heap/live:bytes). Unlike
// the resident set, this does not hang on how fast the runtime returns
// freed pages to the operating system, which it does at a wall-clock pace
// and so at the host's speed.
type heapWatch struct {
	stopc chan struct{}
	done  chan []float64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		var mbs []float64
		for {
			select {
			case <-w.stopc:
				w.done <- mbs
				return
			case <-t.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				mbs = append(mbs, float64(s[1].Value.Uint64())/1e6)
			}
		}
	}()
	return w
}

// stop ends the watch and returns the live heap of each cycle in MB. A run
// too short for any cycle to end (a smoke test) gets the live heap of a
// forced one.
func (w *heapWatch) stop() []float64 {
	close(w.stopc)
	mbs := <-w.done
	if len(mbs) == 0 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		mbs = append(mbs, float64(s[0].Value.Uint64())/1e6)
	}
	return mbs
}
