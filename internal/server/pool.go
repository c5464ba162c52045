package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports that a request was shed: the pool's queue-wait
// budget (or queue-length threshold) was exceeded before a slot freed up.
// It maps to HTTP 429 with a Retry-After header.
var ErrOverloaded = errors.New("server overloaded; retry later")

// Pool bounds the number of kernel executions running concurrently, so a
// burst of requests shares the host's cores instead of each spawning an
// unbounded simulation. Acquisition is context-aware: a caller whose
// deadline expires while queued leaves the queue immediately.
type Pool struct {
	sem     chan struct{}
	waiting atomic.Int64
	running atomic.Int64
	done    atomic.Uint64
	shed    atomic.Uint64
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	Size      int    `json:"size"`
	Running   int64  `json:"running"`
	Waiting   int64  `json:"waiting"`
	Completed uint64 `json:"completed"`
	// Shed counts acquisitions abandoned because the queue-wait budget
	// expired (DoWithin returning ErrOverloaded).
	Shed uint64 `json:"shed"`
}

// NewPool returns a pool admitting up to size concurrent executions.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// DoWithin runs f once a slot is free, in the calling goroutine. It
// returns ctx.Err() without running f if ctx is done first (or already
// done). If no slot frees up within budget, the acquisition is abandoned
// and ErrOverloaded is returned without running f; a zero budget waits as
// long as ctx allows.
func (p *Pool) DoWithin(ctx context.Context, budget time.Duration, f func()) error {
	// The select below picks randomly when several channels are ready; an
	// already-expired context must lose deterministically.
	if err := ctx.Err(); err != nil {
		return err
	}
	var expired <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget)
		defer t.Stop()
		expired = t.C
	}
	p.waiting.Add(1)
	select {
	case p.sem <- struct{}{}:
		p.waiting.Add(-1)
	case <-ctx.Done():
		p.waiting.Add(-1)
		return ctx.Err()
	case <-expired:
		p.waiting.Add(-1)
		p.shed.Add(1)
		return ErrOverloaded
	}
	defer func() {
		<-p.sem
		p.done.Add(1)
	}()
	p.running.Add(1)
	defer p.running.Add(-1)
	f()
	return nil
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Size:      cap(p.sem),
		Running:   p.running.Load(),
		Waiting:   p.waiting.Load(),
		Completed: p.done.Load(),
		Shed:      p.shed.Load(),
	}
}

// Waiting reports how many callers are queued for a slot right now — the
// quantity the server's queue-length shed threshold and readiness probe
// are stated in.
func (p *Pool) Waiting() int64 { return p.waiting.Load() }
