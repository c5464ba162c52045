// Package netchaos is the link-level counterpart of internal/fault: a
// deterministic, seeded fault injector wrapped around net.Conn. Where
// fault.Plan schedules *logical* failures (machine crashes, stragglers)
// that the simulator recovers from, a netchaos.Plan schedules *wire*
// failures — silent drops, bit corruption, one-way partitions, and
// mid-stream resets — that the transport layer must absorb (CRC
// rejection, connection recycling, worker rejoin) without ever changing
// a deterministic counter. It is the repository's one way to lose a
// message: Drop loses shuffle traffic on the wire, and the transport's
// recovery is what a lossy run exercises.
//
// Every decision is a pure function of (plan seed, failure kind,
// connection index, operation index) via the same SplitMix64 Bernoulli
// primitive fault.Plan uses (fault.Decide), so a chaos schedule replays
// from its seed alone. The *hits* still depend on runtime interleaving
// (how many writes a connection sees before dying is timing-dependent) —
// which is exactly the point: the invariant under test is that the
// deterministic counters are identical under ANY link schedule, not that
// the schedule itself is reproducible wall-clock for wall-clock.
package netchaos

import (
	"flag"
	"fmt"
	"net"
	"sync/atomic"

	"mpcdist/internal/fault"
)

// Plan is a deterministic link-fault schedule. The zero value (and a nil
// *Plan) injects nothing; rates are probabilities in [0, 1].
type Plan struct {
	// Seed derives every decision; two plans with equal fields produce
	// identical schedules.
	Seed int64
	// Corrupt is the probability one byte of a write — and, independently,
	// of a read — is bit-flipped in flight (the transport's CRC must catch
	// it). Read-path flips let a one-sided wrapper perturb both directions.
	Corrupt float64
	// Drop is the probability a write is truncated in flight (the first
	// half of the bytes are delivered, the rest vanish) while still
	// reporting success to the sender. Truncation — rather than discarding
	// the whole write — is deliberate: transport writes are frame-aligned,
	// so a cleanly missing frame on an otherwise healthy connection would
	// be undetectable (heartbeats keep the deadline fresh) and the peer
	// would wait at a barrier forever. A truncated write desynchronizes
	// the stream instead, so the next frame fails its CRC and the
	// connection recycles through the rejoin path.
	Drop float64
	// Reset is the probability the connection is torn down immediately
	// after a write (mid-stream reset).
	Reset float64
	// Partition is the probability, per connection, that the link is
	// one-way partitioned from birth: writes blackhole or reads stall
	// (direction chosen deterministically) until the peer deadline
	// recycles the connection. Redials get fresh connection ids, so
	// partitions heal on reconnect.
	Partition float64
}

// Decision-kind salts, mirroring internal/fault's vocabulary.
const (
	kindCorrupt   uint64 = 0x636f727275707400 // "corrupt\0"
	kindCorrByte  uint64 = 0x636f7272627974   // "corrbyt"
	kindCorrBit   uint64 = 0x636f7272626974   // "corrbit"
	kindDrop      uint64 = 0x6c696e6b64726f70 // "linkdrop"
	kindReset     uint64 = 0x7265736574000000 // "reset\0\0\0"
	kindPartition uint64 = 0x7061727469746e   // "partitn"
	kindPartDir   uint64 = 0x7061727464697200 // "partdir\0"
)

// Active reports whether the plan can perturb anything. A nil plan is
// inactive and Injector.Wrap becomes the identity.
func (p *Plan) Active() bool {
	return p != nil && (p.Corrupt > 0 || p.Drop > 0 || p.Reset > 0 || p.Partition > 0)
}

// String renders the schedule parameters; two plans with equal strings
// inject identical schedules.
func (p *Plan) String() string {
	if p == nil {
		return "netchaos.Plan(nil)"
	}
	return fmt.Sprintf("netchaos.Plan{seed=%d corrupt=%g drop=%g reset=%g partition=%g}",
		p.Seed, p.Corrupt, p.Drop, p.Reset, p.Partition)
}

// Injector wraps connections with the plan's schedule, handing each
// wrapped connection the next deterministic connection index.
type Injector struct {
	plan Plan
	next atomic.Int64
}

// New returns an injector for the plan, or nil for a nil/inactive plan
// (a nil *Injector is safe to use; Wrap becomes the identity).
func New(p *Plan) *Injector {
	if !p.Active() {
		return nil
	}
	return &Injector{plan: *p}
}

// Wrap wraps c with the injector's schedule. The wrapper starts DISARMED —
// a pure passthrough — so handshakes complete cleanly; the transport arms
// it (via the Arm method) once the session is established. Without this,
// a corrupted hello/welcome would kill a worker before it ever joins, and
// a rejoin handshake could corrupt-loop forever.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	cc := &conn{Conn: c, plan: &in.plan, id: int(in.next.Add(1))}
	if fault.Decide(in.plan.Seed, kindPartition, in.plan.Partition, cc.id, 0, 0) {
		cc.partitioned = true
		cc.partIn = fault.Uniform(in.plan.Seed, kindPartDir, cc.id, 0, 0) < 0.5
	}
	return cc
}

// conn is a net.Conn with deterministic link faults on the write path and
// one-way partitions on either path.
type conn struct {
	net.Conn
	plan *Plan
	id   int

	armed atomic.Bool
	wOps  atomic.Int64
	rOps  atomic.Int64

	partitioned bool // one-way partition from birth (once armed)
	partIn      bool // true: inbound blackhole; false: outbound blackhole
}

// Arm enables the schedule. Called by the transport after the handshake.
func (c *conn) Arm() { c.armed.Store(true) }

func (c *conn) Read(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Read(p)
	}
	if c.partitioned && c.partIn {
		// Inbound partition: consume and discard forever. The underlying
		// read still honors SetReadDeadline, so the peer's rolling deadline
		// eventually recycles the connection.
		c.rOps.Add(1)
		for {
			if _, err := c.Conn.Read(p); err != nil {
				return 0, err
			}
		}
	}
	n, err := c.Conn.Read(p)
	// Corrupt the read path too (coordinate 1 keeps the stream disjoint
	// from the write path's): with only one side of a session wrapped,
	// inbound flips are what perturb the unwrapped peer's frames.
	pl := c.plan
	if n > 0 && pl.Corrupt > 0 {
		op := int(c.rOps.Add(1))
		if fault.Decide(pl.Seed, kindCorrupt, pl.Corrupt, c.id, op, 1) {
			pos := int(fault.Uniform(pl.Seed, kindCorrByte, c.id, op, 1) * float64(n))
			bit := int(fault.Uniform(pl.Seed, kindCorrBit, c.id, op, 1) * 8)
			p[pos] ^= 1 << bit
		}
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	pl := c.plan
	op := int(c.wOps.Add(1))
	if c.partitioned && !c.partIn {
		return len(p), nil // outbound blackhole
	}
	if fault.Decide(pl.Seed, kindDrop, pl.Drop, c.id, op, 0) {
		// Truncate: deliver the first half, vanish the rest, report success.
		// See Plan.Drop for why this must not discard the whole write.
		if len(p) > 1 {
			if n, err := c.Conn.Write(p[:len(p)/2]); err != nil {
				return n, err
			}
		}
		return len(p), nil
	}
	buf := p
	if len(p) > 0 && fault.Decide(pl.Seed, kindCorrupt, pl.Corrupt, c.id, op, 0) {
		buf = append([]byte(nil), p...)
		pos := int(fault.Uniform(pl.Seed, kindCorrByte, c.id, op, 0) * float64(len(buf)))
		bit := int(fault.Uniform(pl.Seed, kindCorrBit, c.id, op, 0) * 8)
		buf[pos] ^= 1 << bit
	}
	n, err := c.Conn.Write(buf)
	if n > len(p) {
		n = len(p)
	}
	if err == nil && fault.Decide(pl.Seed, kindReset, pl.Reset, c.id, op, 0) {
		c.Conn.Close() // mid-stream reset: the next operation on either side fails
	}
	return n, err
}

// BindFlags registers the standard link-chaos flags on fs (shared by
// mpcdist, mpcworker, and mpcbench) and returns a closure that assembles
// the Plan after fs.Parse; it returns nil when the plan is inactive.
func BindFlags(fs *flag.FlagSet) func() *Plan {
	seed := fs.Int64("netchaos-seed", 1, "link-fault schedule seed (schedules are deterministic and replayable)")
	corrupt := fs.Float64("netchaos-corrupt", 0, "probability one byte of a write is bit-flipped in flight")
	drop := fs.Float64("netchaos-drop", 0, "probability a transport write is truncated in flight (stream desync)")
	reset := fs.Float64("netchaos-reset", 0, "probability the connection resets right after a write")
	partition := fs.Float64("netchaos-partition", 0, "probability a connection is one-way partitioned from birth")
	return func() *Plan {
		p := &Plan{Seed: *seed, Corrupt: *corrupt, Drop: *drop, Reset: *reset, Partition: *partition}
		if !p.Active() {
			return nil
		}
		return p
	}
}
