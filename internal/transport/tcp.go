package transport

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"mpcdist/internal/trace"
)

// Options tune the TCP transport's liveness machinery. The zero value
// means the defaults below.
type Options struct {
	// HeartbeatInterval is how often each side pings an idle connection.
	HeartbeatInterval time.Duration // default 250ms
	// PeerTimeout is the rolling read deadline: a peer silent for this
	// long (no frames, no heartbeats) is declared lost.
	PeerTimeout time.Duration // default 3s
	// HandshakeTimeout bounds worker registration (process spawn + dial +
	// hello/welcome).
	HandshakeTimeout time.Duration // default 30s
	// RejoinGrace, on a coordinator, holds a lost worker's slot open for
	// this long: instead of immediate eviction the worker is held suspect,
	// and if it redials with the session token inside the window it resumes
	// its slot with no deterministic-state loss. Zero (the default) keeps
	// the historical behavior — any connection failure evicts the peer.
	// Workers learn the window from the welcome frame and bound their
	// reconnect loop by it.
	RejoinGrace time.Duration
	// CorruptTolerance caps cumulative corrupt frames per peer slot before
	// the coordinator stops offering rejoin and evicts the peer for good.
	// Zero or negative means DefaultCorruptTolerance.
	CorruptTolerance int
	// WrapConn, when non-nil, wraps every transport connection — initial
	// handshakes and rejoin redials on both sides. This is the injection
	// point for internal/netchaos; wrappers exposing an Arm() method start
	// disarmed and are armed only after the handshake completes.
	WrapConn func(net.Conn) net.Conn
	// OnEvent, when non-nil, receives transport-level trace events
	// (handshake, exchange barriers, peer losses, reassignments).
	OnEvent func(trace.TransportEvent)
	// Telemetry, on a coordinator, asks workers (via the welcome frame) to
	// buffer trace events and ship them back as fTelemetry frames at round
	// barriers and job end. Strictly out-of-band: results and deterministic
	// counters are bit-identical either way.
	Telemetry bool
	// TestDieAtSeq, on a worker, terminates the process abruptly at the
	// start of the given exchange (1-based), before its records ship — a
	// deterministic stand-in for a mid-round worker crash, used by the
	// recovery tests. Zero disables.
	TestDieAtSeq int
	// TestDieAtParty restricts TestDieAtSeq to the worker holding the
	// given party index. Zero means every worker it is set on.
	TestDieAtParty int
	// TestDropConnAtSeq, on a worker, closes the transport connection under
	// the session's feet at the start of the given exchange (1-based) — a
	// deterministic mid-round link failure. With a rejoin grace in force
	// the worker must reconnect, resume its slot, and finish the job with
	// bit-identical results. Zero disables.
	TestDropConnAtSeq int
	// TestDropConnAtParty restricts TestDropConnAtSeq to the worker holding
	// the given party index. Zero means every worker it is set on.
	TestDropConnAtParty int
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 3 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 30 * time.Second
	}
	if o.CorruptTolerance <= 0 {
		o.CorruptTolerance = DefaultCorruptTolerance
	}
	return o
}

// TestDieExitCode is the exit status of a worker killed by TestDieAtSeq,
// distinguishable from crashes in test assertions.
const TestDieExitCode = 3

// The telemetry payload travels through the same self-describing codec as
// round traffic, so a worker built from the same sources ships it with no
// extra wire machinery.
func init() { Register("trace.Telemetry", trace.Telemetry{}) }

// ErrShutdown reports an orderly session end: the coordinator told the
// worker there are no more jobs.
var ErrShutdown = errors.New("transport: session shut down")

// armConn arms a chaos wrapper (see Options.WrapConn) once the handshake
// is done; plain connections are left alone.
func armConn(c net.Conn) {
	if a, ok := c.(interface{ Arm() }); ok {
		a.Arm()
	}
}

// newToken mints the session-resume credential carried by the welcome
// frame and required back in every resume hello.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Out of entropy is not a working machine; without a token rejoin
		// is simply never offered.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// peerState is the coordinator's liveness view of one worker slot.
type peerState uint8

const (
	peerUp      peerState = iota // connection live
	peerSuspect                  // connection failed; slot held for rejoin
	peerDead                     // permanently evicted
)

// Event kinds on the coordinator's internal event channel.
const (
	evFrame  = iota // an inbound frame (f valid)
	evDeath         // the slot's connection failed or its grace expired (state already updated; only wakes await)
	evRejoin        // the slot resumed on a fresh connection
)

// peerEvent is one occurrence on a worker slot. gen stamps which
// connection generation produced it, so events from a retired connection
// cannot act on its replacement; frames are generation-agnostic (data is
// data — the dedup layers make duplicates harmless).
type peerEvent struct {
	w    int
	gen  int
	kind int
	f    frame
}

// slotCounters accumulates the wire counters of a slot's retired
// connections, so Stats survive connection recycling.
type slotCounters struct {
	bytesIn, bytesOut, frames, corrupt, reconnects int64
}

func (s *slotCounters) retire(p *peer) {
	s.bytesIn += p.bytesIn.Load()
	s.bytesOut += p.bytesOut.Load()
	s.frames += p.frames.Load()
	s.corrupt += p.corrupt.Load()
}

// Coordinator is party 0 of a TCP session: it owns the worker
// registrations, drives the per-round barrier, detects lost workers,
// holds them suspect through the rejoin grace, and reassigns their
// machines when they are truly gone. It implements Transport.
type Coordinator struct {
	opts   Options
	codec  *Codec
	ln     net.Listener // retained for rejoin accepts when RejoinGrace > 0
	token  string
	events chan peerEvent
	done   chan struct{}

	// mu guards everything below. The driver goroutine (StartJob /
	// Exchange / Results) is the main writer of seq/cur; connection
	// failures, rejoins and expired graces mutate peers/state/gen from
	// pump, accept and timer goroutines, so every access takes the lock.
	mu      sync.Mutex
	st      Stats
	peers   []*peer
	state   []peerState
	gen     []int
	retired []slotCounters
	tel     []trace.Telemetry
	seq     int
	cur     RoundMeta
	jobSeq  uint64
	jobAct  bool
	lastJob []byte // encoded fJobStart body (jobSeq-prefixed), for rejoin resync

	// The last merged barrier broadcast, stored before any write so a
	// rejoining worker whose copy died with its connection can be caught
	// up exactly.
	lastMergedSeq  int
	lastMergedBody []byte

	closing bool
	timers  []*time.Timer
}

// NewCoordinator accepts and registers exactly `workers` worker processes
// on ln, handshaking each: the worker's hello (magic + protocol version)
// is validated, then the welcome ships the protocol version, the party
// count and the worker's party index, the session-resume token and rejoin
// grace, and the payload-codec name table — so the two processes agree on
// every wire id before any round runs. With a rejoin grace configured the
// listener stays open for session-resume redials until Close.
func NewCoordinator(ln net.Listener, workers int, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		codec:   NewCodec(),
		token:   newToken(),
		events:  make(chan peerEvent, 4*workers+16),
		done:    make(chan struct{}),
		state:   make([]peerState, workers),
		gen:     make([]int, workers),
		retired: make([]slotCounters, workers),
	}
	deadline := time.Now().Add(opts.HandshakeTimeout)
	conns := make([]net.Conn, 0, workers)
	for i := 0; i < workers; i++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: waiting for worker %d/%d: %w", i+1, workers, err)
		}
		if opts.WrapConn != nil {
			conn = opts.WrapConn(conn)
		}
		p := newPeer(conn, i+1, opts.PeerTimeout)
		if err := c.handshake(p, workers, i+1, deadline); err != nil {
			p.close()
			c.Close()
			return nil, err
		}
		c.peers = append(c.peers, p)
		conns = append(conns, conn)
	}
	if opts.RejoinGrace > 0 {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Time{})
		}
		c.ln = ln
		go c.acceptLoop(ln)
	}
	for i, p := range c.peers {
		armConn(conns[i])
		p.start(opts.HeartbeatInterval)
		go c.pump(i, p, 0)
	}
	c.event(trace.TransportEvent{Kind: trace.TransportHandshake, Party: -1, IDs: workers})
	return c, nil
}

func (c *Coordinator) handshake(p *peer, workers, party int, deadline time.Time) error {
	p.conn.SetDeadline(deadline)
	defer p.conn.SetDeadline(time.Time{})
	f, err := p.read()
	if err != nil {
		return fmt.Errorf("transport: worker %d hello: %w", party, err)
	}
	if f.typ != fHello {
		return fmt.Errorf("transport: worker %d sent %s, want hello", party, f.typ)
	}
	h, err := decodeHello(f.body)
	if err != nil {
		return fmt.Errorf("transport: worker %d: %w", party, err)
	}
	if h.Version != ProtocolVersion {
		msg := fmt.Sprintf("protocol version mismatch: coordinator %d, worker %d", ProtocolVersion, h.Version)
		p.write(fError, []byte(msg))
		return errors.New("transport: " + msg)
	}
	if h.Resume {
		msg := "session-resume hello during registration"
		p.write(fError, []byte(msg))
		return errors.New("transport: " + msg)
	}
	return p.write(fWelcome, encodeWelcome(welcome{
		Version: ProtocolVersion,
		Parties: workers + 1,
		Self:    party,
		ClockNs: time.Now().UnixNano(),
		// Workers ship telemetry when the session asked for it OR when the
		// coordinator's flight recorder is on (the default): the recorder
		// needs every party's recent events to make a useful dump, and
		// shipping is out-of-band by contract — only advisory wire volume
		// changes, never a deterministic counter.
		Telemetry: c.opts.Telemetry || trace.FlightEnabled(),
		Token:     c.token,
		GraceNs:   int64(c.opts.RejoinGrace),
		Table:     c.codec.Table(),
	}))
}

// pump forwards one connection's inbox into the shared event channel,
// reporting the connection's death when the inbox closes. It is the only
// reader of p.inbox.
func (c *Coordinator) pump(w int, p *peer, gen int) {
	for f := range p.inbox {
		select {
		case c.events <- peerEvent{w: w, gen: gen, kind: evFrame, f: f}:
		case <-c.done:
			return
		}
	}
	// State must transition here (not in the driver's event loop): a
	// worker may redial while the driver is idle between exchanges, and
	// the rejoin handler needs to find the slot already suspect.
	c.connFailed(w, p, p.readErr)
	select {
	case c.events <- peerEvent{w: w, gen: gen, kind: evDeath}:
	case <-c.done:
	}
}

func (c *Coordinator) event(e trace.TransportEvent) {
	if c.opts.OnEvent == nil && !trace.FlightEnabled() {
		return
	}
	e.At = time.Now()
	e.Bytes = c.Stats().BytesOut
	// The process-global flight recorder sees every transport event (and
	// self-triggers a dump on peer loss); the session's own observer chain
	// is wired separately via OnEvent, so neither records twice.
	trace.FlightTransport(e)
	if c.opts.OnEvent != nil {
		c.opts.OnEvent(e)
	}
}

// Parties implements Transport.
func (c *Coordinator) Parties() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers) + 1, 0
}

// Codec returns the session's payload codec (for encoding job specs and
// result digests with the same table the round traffic uses).
func (c *Coordinator) Codec() *Codec { return c.codec }

func (c *Coordinator) curSeq() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

func (c *Coordinator) genOf(w int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen[w]
}

func (c *Coordinator) peerAt(w int) (*peer, peerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[w], c.state[w]
}

// connFailed handles the failure of slot w's connection p: retire its
// counters, then either hold the slot suspect for the rejoin grace or
// evict it for good (no grace configured, or the peer burned through the
// corrupt-frame tolerance). Safe from any goroutine; no-op if the slot
// has already moved on (a rejoin swapped in a fresh connection).
func (c *Coordinator) connFailed(w int, p *peer, cause error) {
	c.mu.Lock()
	if c.closing || c.peers[w] != p || c.state[w] != peerUp {
		c.mu.Unlock()
		return
	}
	gen := c.gen[w]
	c.retired[w].retire(p)
	var cfe *CorruptFrameError
	isCorrupt := errors.As(cause, &cfe)
	overTol := c.retired[w].corrupt > int64(c.opts.CorruptTolerance)
	if c.opts.RejoinGrace > 0 && !overTol {
		c.state[w] = peerSuspect
		t := time.AfterFunc(c.opts.RejoinGrace, func() { c.markDeadFromSuspect(w, gen) })
		c.timers = append(c.timers, t)
		c.mu.Unlock()
		p.close()
		if isCorrupt {
			c.event(trace.TransportEvent{Kind: trace.TransportCorrupt, Party: w + 1, Seq: c.curSeq()})
		}
		c.event(trace.TransportEvent{Kind: trace.TransportSuspect, Party: w + 1, Seq: c.curSeq()})
		return
	}
	c.state[w] = peerDead
	c.st.PeersLost++
	c.mu.Unlock()
	p.close()
	if isCorrupt {
		c.event(trace.TransportEvent{Kind: trace.TransportCorrupt, Party: w + 1, Seq: c.curSeq()})
	}
	if overTol {
		trace.FlightTrigger("transport: corrupt-frame burst")
	}
	c.event(trace.TransportEvent{Kind: trace.TransportPeerLost, Party: w + 1, Seq: c.curSeq()})
}

// markDeadFromSuspect finalizes an expired grace window, unless the slot
// rejoined (or died otherwise) in the meantime, and wakes await.
func (c *Coordinator) markDeadFromSuspect(w, gen int) {
	c.mu.Lock()
	if c.closing || c.gen[w] != gen || c.state[w] != peerSuspect {
		c.mu.Unlock()
		return
	}
	c.state[w] = peerDead
	c.st.PeersLost++
	c.mu.Unlock()
	c.event(trace.TransportEvent{Kind: trace.TransportPeerLost, Party: w + 1, Seq: c.curSeq()})
	select {
	case c.events <- peerEvent{w: w, gen: gen, kind: evDeath}:
	case <-c.done:
	}
}

// acceptLoop serves session-resume redials for the life of the session
// (only started when a rejoin grace is configured).
func (c *Coordinator) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go c.rejoin(conn)
	}
}

// rejoin handshakes one redialing worker and, if its token checks out and
// its slot is not evicted, swaps the fresh connection in and resyncs the
// worker to the current barrier: the job spec if it was between jobs, the
// last merged broadcast if its copy died in flight. Everything resent is
// deduplicated on the worker, so resync can only fill gaps, never double
// anything.
func (c *Coordinator) rejoin(conn net.Conn) {
	if c.opts.WrapConn != nil {
		conn = c.opts.WrapConn(conn)
	}
	p := newPeer(conn, 0, c.opts.PeerTimeout)
	p.conn.SetDeadline(time.Now().Add(c.opts.HandshakeTimeout))
	f, err := p.read()
	if err != nil || f.typ != fHello {
		p.close()
		return
	}
	h, err := decodeHello(f.body)
	if err != nil {
		p.close()
		return
	}
	if h.Version != ProtocolVersion || !h.Resume {
		p.write(fError, []byte("transport: expected session-resume hello"))
		p.close()
		return
	}
	w := h.Party - 1
	c.mu.Lock()
	if c.closing || c.token == "" || h.Token != c.token || w < 0 || w >= len(c.peers) {
		c.mu.Unlock()
		p.write(fError, []byte("transport: bad resume token or party"))
		p.close()
		return
	}
	if c.state[w] == peerDead {
		c.mu.Unlock()
		p.write(fError, []byte("transport: party evicted (rejoin grace expired)"))
		p.close()
		return
	}
	old := c.peers[w]
	if c.state[w] == peerUp {
		// The worker saw the failure before we did: it gets a write error
		// instantly while our read deadline takes up to PeerTimeout to
		// fire. Adopt the fresh connection and retire the stale one.
		c.retired[w].retire(old)
	}
	p.party = h.Party
	c.peers[w] = p
	c.gen[w]++
	gen := c.gen[w]
	c.state[w] = peerUp
	c.st.Reconnects++
	c.retired[w].reconnects++
	mergedSeq, mergedBody := c.lastMergedSeq, c.lastMergedBody
	jobAct, lastJob := c.jobAct, c.lastJob
	parties := len(c.peers) + 1
	c.mu.Unlock()
	if old != p {
		old.close()
	}
	err = p.write(fWelcome, encodeWelcome(welcome{
		Version:   ProtocolVersion,
		Parties:   parties,
		Self:      h.Party,
		ClockNs:   time.Now().UnixNano(),
		Telemetry: c.opts.Telemetry || trace.FlightEnabled(),
		Token:     c.token,
		GraceNs:   int64(c.opts.RejoinGrace),
		Table:     c.codec.Table(),
	}))
	if err == nil && h.NeedJob && jobAct {
		err = p.write(fJobStart, lastJob)
	}
	if err == nil && !h.NeedJob && h.LastAcked < mergedSeq && mergedBody != nil {
		err = p.write(fMerged, mergedBody)
	}
	if err != nil {
		c.connFailed(w, p, err)
		return
	}
	p.conn.SetDeadline(time.Time{})
	armConn(conn)
	p.start(c.opts.HeartbeatInterval)
	go c.pump(w, p, gen)
	c.event(trace.TransportEvent{Kind: trace.TransportReconnect, Party: h.Party, Seq: c.curSeq()})
	select {
	case c.events <- peerEvent{w: w, gen: gen, kind: evRejoin}:
	case <-c.done:
	}
}

// StartJob broadcasts an opaque job spec to every live worker. The body
// carries a job sequence number so a rejoin resync can re-deliver it
// without a worker ever running the same job twice. Workers suspect or
// lost here are recovered like mid-round losses.
func (c *Coordinator) StartJob(job []byte) error {
	c.mu.Lock()
	c.jobSeq++
	body := encodeJobStart(c.jobSeq, job)
	c.lastJob = body
	c.jobAct = true
	c.mu.Unlock()
	c.sendAll(fJobStart, body)
	return nil
}

// sendAll writes one frame to every live worker. Callers store it for the
// rejoin resync first, so a suspect is caught up when it resumes. A write
// that failed because the slot swapped connections meanwhile is retried
// on the new one (workers drop duplicates by sequence number).
func (c *Coordinator) sendAll(t frameType, body []byte) {
	peers, states := c.slots()
	for w, p := range peers {
		if states[w] != peerUp {
			continue
		}
		if err := p.write(t, body); err != nil {
			if cur, st := c.peerAt(w); cur != p && st == peerUp {
				p, err = cur, cur.write(t, body)
			}
			if err != nil {
				c.connFailed(w, p, err)
			}
		}
	}
}

// slots snapshots every worker slot's connection and liveness.
func (c *Coordinator) slots() ([]*peer, []peerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*peer(nil), c.peers...), append([]peerState(nil), c.state...)
}

// Exchange implements Transport: gather every party's records for the
// round, riding out connection failures (suspects may rejoin and resume
// mid-round), reassigning a truly lost worker's pending machines to a
// live worker (or replaying them locally when none remains), then
// broadcast the merged, machine-sorted round — the round barrier.
func (c *Coordinator) Exchange(meta RoundMeta, assign [][]int, local []Record, exec ExecFunc) ([]Record, error) {
	x := c.openExchange(meta, assign, local, exec)
	if err := c.await(x); err != nil {
		return nil, err
	}
	out := x.mergedRound()
	if err := c.broadcast(x.seq, meta, out); err != nil {
		return nil, err
	}
	return out, nil
}

// exchange is the coordinator's side of one round barrier.
type exchange struct {
	c    *Coordinator
	seq  int
	meta RoundMeta
	exec ExecFunc
	// merged keeps the first record of each machine. Records made here
	// have Remote false and decoded ones Remote true, as the driver needs.
	merged map[int]Record
	// owed[w] maps each machine worker w was asked to execute and has not
	// delivered to whether the ask was an fAssign frame, which is re-sent
	// if the connection it rode dies. needBarrier[w] reports that w's
	// mandatory (possibly empty) records frame is still due.
	owed        []map[int]bool
	needBarrier []bool
	// pending parks machines whose owner died while every other worker
	// was suspect, until a suspect rejoins or dies.
	pending []int
}

// openExchange starts the session's next exchange. Every worker, dead or
// alive, owes its records frame and its machines: await hands the debt of
// a dead one to lost.
func (c *Coordinator) openExchange(meta RoundMeta, assign [][]int, local []Record, exec ExecFunc) *exchange {
	c.mu.Lock()
	c.seq++
	c.cur = meta
	x := &exchange{c: c, seq: c.seq, meta: meta, exec: exec, merged: make(map[int]Record, 2*len(local)),
		owed: make([]map[int]bool, len(c.peers)), needBarrier: make([]bool, len(c.peers))}
	c.mu.Unlock()
	for _, r := range local {
		x.merged[r.Machine] = r
	}
	for w := range x.owed {
		x.owed[w] = make(map[int]bool)
		x.needBarrier[w] = true
		if w+1 < len(assign) {
			for _, id := range assign[w+1] {
				x.owed[w][id] = false
			}
		}
	}
	return x
}

func (x *exchange) want() frameType { return fRecords }

// deliver merges worker w's records frame.
func (x *exchange) deliver(w int, body []byte) error {
	seq, meta, recs, err := decodeRecords(x.c.codec, body)
	if err != nil {
		return fmt.Errorf("transport: worker %d records: %w", w+1, err)
	}
	if seq < x.seq {
		return nil // a rejoining worker re-sent an already-merged round
	}
	if seq != x.seq || meta != x.meta {
		trace.FlightTrigger("transport: exchange divergence")
		return &DivergenceError{Seq: seq, WantSeq: x.seq, Want: x.meta, Got: meta}
	}
	x.needBarrier[w] = false
	for _, r := range recs {
		delete(x.owed[w], r.Machine)
		if _, dup := x.merged[r.Machine]; !dup {
			x.merged[r.Machine] = r
		}
	}
	return nil
}

// lost takes back what the dead workers still owe and reassigns it,
// together with any parked machines.
func (x *exchange) lost(ws []int) error {
	ids := x.pending
	x.pending = nil
	for _, w := range ws {
		for id := range x.owed[w] {
			ids = append(ids, id)
		}
		clear(x.owed[w])
		x.needBarrier[w] = false
	}
	return x.reassign(ids)
}

// rejoined re-sends the reassignments that may have died with worker w's
// old connection, then routes any parked machines. The worker re-executes
// deterministically and the merge keeps the first record, so a frame that
// did arrive costs nothing.
func (x *exchange) rejoined(w int) error {
	var ids []int
	for id, assigned := range x.owed[w] {
		if assigned {
			ids = append(ids, id)
		}
	}
	if p, st := x.c.peerAt(w); len(ids) > 0 && st == peerUp {
		sort.Ints(ids)
		if err := p.write(fAssign, encodeAssign(x.seq, ids)); err != nil {
			x.c.connFailed(w, p, err)
		}
	}
	ids, x.pending = x.pending, nil
	return x.reassign(ids)
}

// reassign routes machines to the lowest-index live worker, passing over
// one whose connection fails on send (await collects that worker's own
// debt once it is dead). With no worker up but some suspect, the machines
// are parked for the suspect's resolution; with nobody left at all the
// coordinator replays them itself (exact, by determinism).
func (x *exchange) reassign(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	for {
		w, suspect := x.c.firstUp()
		switch {
		case w >= 0:
			p, _ := x.c.peerAt(w)
			if err := p.write(fAssign, encodeAssign(x.seq, ids)); err != nil {
				x.c.connFailed(w, p, err)
				continue
			}
			for _, id := range ids {
				x.owed[w][id] = true
			}
		case suspect:
			x.pending = append(x.pending, ids...)
			return nil
		default:
			recs, err := x.exec(ids)
			if err != nil {
				return err
			}
			for _, r := range recs {
				x.merged[r.Machine] = r
			}
		}
		x.c.mu.Lock()
		x.c.st.Reassigns++
		x.c.mu.Unlock()
		// w+1 is the receiving party: 0, the coordinator, for a replay.
		x.c.event(trace.TransportEvent{Kind: trace.TransportReassign, Party: w + 1, Seq: x.seq, IDs: len(ids)})
		return nil
	}
}

// done reports whether no worker owes anything and no machine is parked.
func (x *exchange) done() bool {
	if len(x.pending) > 0 {
		return false
	}
	for w := range x.owed {
		if x.needBarrier[w] || len(x.owed[w]) > 0 {
			return false
		}
	}
	return true
}

// mergedRound returns the merged records sorted by machine id.
func (x *exchange) mergedRound() []Record {
	out := make([]Record, 0, len(x.merged))
	for _, r := range x.merged {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// broadcast sends the merged round to every worker. It is stored first: a
// worker that rejoins from here on is resynced from it, so the round can
// be lost on the wire but never lost for good.
func (c *Coordinator) broadcast(seq int, meta RoundMeta, out []Record) error {
	body, err := encodeRecords(c.codec, seq, meta, out)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.lastMergedSeq, c.lastMergedBody = seq, body
	c.st.Exchanges++
	c.mu.Unlock()
	c.sendAll(fMerged, body)
	c.event(trace.TransportEvent{Kind: trace.TransportExchange, Party: -1, Seq: seq, IDs: len(out)})
	return nil
}

// firstUp returns the lowest-index live worker, or -1 and whether some
// slot is suspect and so may yet rejoin.
func (c *Coordinator) firstUp() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	suspect := false
	for w, s := range c.state {
		if s == peerUp {
			return w, false
		}
		suspect = suspect || s == peerSuspect
	}
	return -1, suspect
}

// Results gathers the end-of-job result frame from every worker not
// permanently lost (nil for evicted workers) — the cross-check that every
// party's deterministic driver landed on the same answer. Suspects are
// waited on: they either rejoin and re-send, or their grace expires.
func (c *Coordinator) Results() ([][]byte, error) {
	c.mu.Lock()
	r := &results{jobSeq: c.jobSeq, out: make([][]byte, len(c.peers)), settled: make([]bool, len(c.peers))}
	c.mu.Unlock()
	if err := c.await(r); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.jobAct = false
	c.mu.Unlock()
	return r.out, nil
}

// results is the coordinator's side of one job's result gathering.
type results struct {
	jobSeq  uint64
	out     [][]byte
	settled []bool // settled[w]: worker w sent its result or died
}

func (r *results) want() frameType { return fResult }

// deliver keeps worker w's first result of this job; one of an earlier
// job is a stale re-send.
func (r *results) deliver(w int, body []byte) error {
	jobSeq, res, err := decodeResult(body)
	if err != nil {
		return fmt.Errorf("transport: worker %d result: %w", w+1, err)
	}
	if jobSeq == r.jobSeq && r.out[w] == nil {
		r.out[w], r.settled[w] = res, true
	}
	return nil
}

func (r *results) lost(ws []int) error {
	for _, w := range ws {
		r.settled[w] = true
	}
	return nil
}

// rejoined has nothing to resync: the worker re-sends its own result.
func (r *results) rejoined(int) error { return nil }

func (r *results) done() bool { return !slices.Contains(r.settled, false) }

// barrier is one wait of the coordinator on its workers, run by await: a
// round's exchange or a job's results.
type barrier interface {
	// want is the frame type the barrier gathers; deliver takes one such
	// frame from worker w.
	want() frameType
	deliver(w int, body []byte) error
	// lost hands over workers that died; rejoined, a worker that resumed
	// its slot on a fresh connection.
	lost(ws []int) error
	rejoined(w int) error
	// done reports whether there is nothing left to wait for.
	done() bool
}

// await runs the coordinator's event loop until b is done. Before each
// check of done it hands b every slot newly found dead, however it died,
// so a death event only wakes the loop and one still queued cannot let b
// finish without the dead worker's share. Events of a retired connection
// generation are stale. The other barrier's frame type is a stale re-send
// from a recovered worker: a round already merged, or an earlier result.
func (c *Coordinator) await(b barrier) error {
	n, _ := c.Parties()
	gone := make([]bool, n-1)
	for {
		var dead []int
		_, states := c.slots()
		for w, s := range states {
			if s == peerDead && !gone[w] {
				gone[w] = true
				dead = append(dead, w)
			}
		}
		if len(dead) > 0 {
			if err := b.lost(dead); err != nil {
				return err
			}
		}
		if b.done() {
			return nil
		}
		var ev peerEvent
		select {
		case ev = <-c.events:
		case <-c.done:
			return errors.New("transport: coordinator closed")
		}
		var err error
		switch ev.kind {
		case evRejoin:
			if c.genOf(ev.w) == ev.gen {
				err = b.rejoined(ev.w)
			}
		case evFrame:
			err = c.route(b, ev.w, ev.f)
		}
		if err != nil {
			return err
		}
	}
}

// route hands one inbound frame from worker w to b, or deals with it here.
func (c *Coordinator) route(b barrier, w int, f frame) error {
	switch f.typ {
	case b.want():
		return b.deliver(w, f.body)
	case fRecords, fResult:
		return nil // a stale re-send
	case fTelemetry:
		c.addTelemetry(f.body)
		return nil
	case fError:
		return fmt.Errorf("transport: worker %d: %s", w+1, f.body)
	}
	return fmt.Errorf("transport: unexpected %s frame from worker %d awaiting %s", f.typ, w+1, b.want())
}

// Alive reports how many workers are currently connected. Safe to call
// from any goroutine.
func (c *Coordinator) Alive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.state {
		if s == peerUp {
			n++
		}
	}
	return n
}

// addTelemetry decodes and buffers one fTelemetry body. Telemetry is
// out-of-band, so a malformed frame is dropped rather than failing the
// round it arrived during.
//
// Every batch feeds the process-global flight recorder as it arrives (so
// a dump taken mid-job already holds the workers' recent events), but it
// is buffered for DrainTelemetry only when the session asked for full
// telemetry — on a recorder-only session nobody drains, and buffering
// would grow without bound on a long-lived server.
func (c *Coordinator) addTelemetry(body []byte) {
	v, err := c.codec.Decode(body)
	if err != nil {
		return
	}
	t, ok := v.(trace.Telemetry)
	if !ok {
		return
	}
	trace.FlightIngest(t)
	if !c.opts.Telemetry {
		return
	}
	c.mu.Lock()
	c.tel = append(c.tel, t)
	c.mu.Unlock()
}

// DrainTelemetry returns the worker telemetry batches received so far, in
// arrival order, and clears the buffer. Batches from one worker across
// several barriers are returned separately; merge with
// trace.MergeTelemetry.
func (c *Coordinator) DrainTelemetry() []trace.Telemetry {
	c.mu.Lock()
	out := c.tel
	c.tel = nil
	c.mu.Unlock()
	return out
}

// PeerStats reports per-worker wire counters and heartbeat RTT estimates,
// ordered by party index (entry i is party i+1). Counters include every
// retired connection the slot has burned through.
func (c *Coordinator) PeerStats() []PeerStats {
	c.mu.Lock()
	peers := append([]*peer(nil), c.peers...)
	states := append([]peerState(nil), c.state...)
	ret := append([]slotCounters(nil), c.retired...)
	c.mu.Unlock()
	out := make([]PeerStats, len(peers))
	for i, p := range peers {
		out[i] = PeerStats{
			Party:         i + 1,
			Alive:         states[i] == peerUp,
			BytesIn:       ret[i].bytesIn + p.bytesIn.Load(),
			BytesOut:      ret[i].bytesOut + p.bytesOut.Load(),
			Frames:        ret[i].frames + p.frames.Load(),
			RTTP99:        p.rttP99(),
			Reconnects:    ret[i].reconnects,
			CorruptFrames: ret[i].corrupt + p.corrupt.Load(),
		}
		if ns := p.lastHeardNs.Load(); ns > 0 {
			out[i].LastHeard = time.Unix(0, ns)
		}
	}
	return out
}

// Status snapshots the coordinator's live view of the session for the
// -status endpoint. Safe to call from any goroutine.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	seq, cur := c.seq, c.cur
	parties := len(c.peers) + 1
	c.mu.Unlock()
	st := Status{
		Role:           "coordinator",
		Parties:        parties,
		Self:           0,
		Seq:            seq,
		Round:          cur.Round,
		Name:           cur.Name,
		Phase:          cur.Phase,
		Alive:          1,
		HeartbeatMs:    float64(c.opts.HeartbeatInterval) / float64(time.Millisecond),
		PeerDeadlineMs: float64(c.opts.PeerTimeout) / float64(time.Millisecond),
		RejoinGraceMs:  float64(c.opts.RejoinGrace) / float64(time.Millisecond),
		Wire:           c.Stats(),
	}
	for _, ps := range c.PeerStats() {
		if ps.Alive {
			st.Alive++
		}
		st.Peers = append(st.Peers, peerStatus(ps, now))
	}
	return st
}

// Shutdown ends the session in order: every live worker is told there are
// no more jobs, then the connections close.
func (c *Coordinator) Shutdown() {
	peers, states := c.slots()
	for w, p := range peers {
		if states[w] == peerUp {
			p.write(fShutdown, nil)
		}
	}
	c.Close()
}

// Stats implements Transport.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := c.st
	peers := append([]*peer(nil), c.peers...)
	ret := append([]slotCounters(nil), c.retired...)
	c.mu.Unlock()
	for i, p := range peers {
		st.BytesIn += ret[i].bytesIn + p.bytesIn.Load()
		st.BytesOut += ret[i].bytesOut + p.bytesOut.Load()
		st.Frames += ret[i].frames + p.frames.Load()
		st.CorruptFrames += ret[i].corrupt + p.corrupt.Load()
	}
	return st
}

// Close implements Transport.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return nil
	}
	c.closing = true
	timers := c.timers
	c.timers = nil
	peers := append([]*peer(nil), c.peers...)
	ln := c.ln
	c.mu.Unlock()
	close(c.done)
	for _, t := range timers {
		t.Stop()
	}
	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.close()
	}
	return nil
}

// Worker is party 1..n-1 of a TCP session: it registers with the
// coordinator, receives job specs, executes its share of each round, and
// adopts the coordinator's merged view at every barrier. When its
// connection dies and the session has a rejoin grace, it redials,
// presents the session token, and resumes exactly where it was — the
// dedup layers on both sides make every re-sent frame idempotent. It
// implements Transport.
type Worker struct {
	opts    Options
	codec   *Codec
	parties int
	self    int

	addr    string // coordinator address, for reconnect
	token   string // session-resume credential from the welcome
	graceNs int64  // rejoin window from the welcome; 0 = don't bother

	// telemetry reflects the coordinator's welcome flag; offsetNs is this
	// process's handshake-time estimate of (coordinator clock - local
	// clock); source produces the next batch to ship (set by the host via
	// SetTelemetrySource).
	telemetry bool
	offsetNs  int64
	source    func() (trace.Telemetry, bool)

	// mu guards the connection (swapped on reconnect), counters, and the
	// recovery bookkeeping; the Status endpoint reads them from another
	// goroutine.
	mu            sync.Mutex
	p             *peer
	st            Stats
	cur           RoundMeta
	seq           int
	retired       slotCounters
	lastAcked     int    // last merged exchange fully processed
	lastJobSeq    uint64 // last fJobStart consumed (dedups resyncs)
	lastResult    []byte // FinishJob payload, re-sent after a reconnect
	lastResultJob uint64
}

// DialWorker connects to a coordinator and completes the registration
// handshake, adopting the coordinator's payload-codec table and the
// session-resume token.
func DialWorker(addr string, opts Options) (*Worker, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing coordinator: %w", err)
	}
	if opts.WrapConn != nil {
		conn = opts.WrapConn(conn)
	}
	p := newPeer(conn, 0, opts.PeerTimeout)
	p.conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	sentNs := time.Now().UnixNano()
	if err := p.write(fHello, encodeHello(hello{Version: ProtocolVersion})); err != nil {
		p.close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	f, err := p.read()
	recvNs := time.Now().UnixNano()
	if err != nil {
		p.close()
		return nil, fmt.Errorf("transport: awaiting welcome: %w", err)
	}
	if f.typ == fError {
		p.close()
		return nil, fmt.Errorf("transport: coordinator rejected registration: %s", f.body)
	}
	if f.typ != fWelcome {
		p.close()
		return nil, fmt.Errorf("transport: coordinator sent %s, want welcome", f.typ)
	}
	wel, err := decodeWelcome(f.body)
	if err != nil {
		p.close()
		return nil, err
	}
	if wel.Version != ProtocolVersion {
		p.close()
		return nil, fmt.Errorf("transport: protocol version mismatch: worker %d, coordinator %d", ProtocolVersion, wel.Version)
	}
	codec, err := NewCodecFor(wel.Table)
	if err != nil {
		p.write(fError, []byte(err.Error()))
		p.close()
		return nil, err
	}
	p.conn.SetDeadline(time.Time{})
	armConn(conn)
	p.start(opts.HeartbeatInterval)
	// NTP-style midpoint: the coordinator stamped its clock somewhere
	// inside our hello->welcome round trip, so the best local estimate of
	// "when" is the midpoint. The residual error is bounded by half the
	// RTT asymmetry — sub-millisecond on one host.
	offset := wel.ClockNs - (sentNs+recvNs)/2
	return &Worker{
		opts: opts, p: p, codec: codec, parties: wel.Parties, self: wel.Self,
		addr: addr, token: wel.Token, graceNs: wel.GraceNs,
		telemetry: wel.Telemetry, offsetNs: offset,
	}, nil
}

// TelemetryEnabled reports whether the coordinator asked for telemetry
// shipping in its welcome.
func (w *Worker) TelemetryEnabled() bool { return w.telemetry }

// ClockOffsetNs is the handshake-time estimate of (coordinator clock -
// local clock) in nanoseconds.
func (w *Worker) ClockOffsetNs() int64 { return w.offsetNs }

// SetTelemetrySource installs the callback that produces telemetry
// batches; it is invoked at each round barrier and at job end, and should
// drain (not re-report) its buffer. The transport stamps Party and
// OffsetNs on every batch. Call before the first Exchange.
func (w *Worker) SetTelemetrySource(fn func() (trace.Telemetry, bool)) { w.source = fn }

// peer returns the current connection (swapped under mu on reconnect).
func (w *Worker) peer() *peer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.p
}

func (w *Worker) event(e trace.TransportEvent) {
	if w.opts.OnEvent == nil && !trace.FlightEnabled() {
		return
	}
	e.At = time.Now()
	e.Bytes = w.Stats().BytesOut
	trace.FlightTransport(e)
	if w.opts.OnEvent != nil {
		w.opts.OnEvent(e)
	}
}

// flushTelemetry ships one buffered batch if telemetry is on and there is
// anything to ship. Send errors are dropped: the next mandatory frame on
// the same conn surfaces the broken wire with better context.
func (w *Worker) flushTelemetry() {
	if !w.telemetry || w.source == nil {
		return
	}
	t, ok := w.source()
	if !ok {
		return
	}
	t.Party = w.self
	t.OffsetNs = w.offsetNs
	body, err := w.codec.Encode(nil, t)
	if err != nil {
		return
	}
	_ = w.peer().write(fTelemetry, body)
}

// Parties implements Transport.
func (w *Worker) Parties() (int, int) { return w.parties, w.self }

// Codec returns the table-synchronized payload codec adopted from the
// coordinator's welcome.
func (w *Worker) Codec() *Codec { return w.codec }

// reconnect recycles a failed connection: retire its counters, then — if
// the session offers a rejoin window — redial and resume with the session
// token, backing off between attempts until the window closes. needJob
// tells the coordinator the worker was between jobs (so the current job
// spec must be re-delivered). Returns the original cause when rejoin is
// not on offer or the window is exhausted; a coordinator-side refusal
// (evicted, bad token) aborts the loop immediately.
func (w *Worker) reconnect(cause error, needJob bool) error {
	w.mu.Lock()
	old := w.p
	w.retired.retire(old)
	token, graceNs := w.token, w.graceNs
	lastAcked := w.lastAcked
	lastResult, lastResultJob, lastJobSeq := w.lastResult, w.lastResultJob, w.lastJobSeq
	w.mu.Unlock()
	old.close()
	var cfe *CorruptFrameError
	if errors.As(cause, &cfe) {
		w.event(trace.TransportEvent{Kind: trace.TransportCorrupt, Party: 0, Seq: w.curSeq()})
	}
	if graceNs <= 0 || token == "" {
		return cause
	}
	deadline := time.Now().Add(time.Duration(graceNs))
	backoff := 25 * time.Millisecond
	for {
		p, permanent, err := w.dialResume(needJob, lastAcked)
		if err == nil {
			w.mu.Lock()
			w.p = p
			w.st.Reconnects++
			w.retired.reconnects++
			w.mu.Unlock()
			w.event(trace.TransportEvent{Kind: trace.TransportReconnect, Party: 0, Seq: w.curSeq()})
			if needJob && lastResult != nil && lastResultJob == lastJobSeq {
				// The result may have died with the old connection while
				// the coordinator still waits on it; the jobSeq prefix
				// makes a duplicate harmless.
				_ = p.write(fResult, encodeResult(lastResultJob, lastResult))
			}
			return nil
		}
		if permanent {
			return err
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return cause
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 400*time.Millisecond {
			backoff = 400 * time.Millisecond
		}
	}
}

// dialResume performs one session-resume attempt. The returned bool marks
// permanent refusals (the coordinator evicted this party) that make
// further attempts pointless.
func (w *Worker) dialResume(needJob bool, lastAcked int) (*peer, bool, error) {
	conn, err := net.DialTimeout("tcp", w.addr, w.opts.HandshakeTimeout)
	if err != nil {
		return nil, false, err
	}
	if w.opts.WrapConn != nil {
		conn = w.opts.WrapConn(conn)
	}
	p := newPeer(conn, 0, w.opts.PeerTimeout)
	p.conn.SetDeadline(time.Now().Add(w.opts.HandshakeTimeout))
	h := hello{
		Version: ProtocolVersion, Resume: true,
		Token: w.token, Party: w.self, LastAcked: lastAcked, NeedJob: needJob,
	}
	if err := p.write(fHello, encodeHello(h)); err != nil {
		p.close()
		return nil, false, err
	}
	f, err := p.read()
	if err != nil {
		p.close()
		return nil, false, err
	}
	if f.typ == fError {
		p.close()
		return nil, true, fmt.Errorf("transport: coordinator refused resume: %s", f.body)
	}
	if f.typ != fWelcome {
		p.close()
		return nil, false, fmt.Errorf("transport: coordinator sent %s, want welcome", f.typ)
	}
	if _, err := decodeWelcome(f.body); err != nil {
		p.close()
		return nil, false, err
	}
	p.conn.SetDeadline(time.Time{})
	armConn(conn)
	p.start(w.opts.HeartbeatInterval)
	return p, false, nil
}

// sendFrame writes one frame, riding out a single connection failure via
// reconnect + retry. Both sides deduplicate, so the retry can at worst
// deliver a frame twice, never change what the session computes.
func (w *Worker) sendFrame(t frameType, body []byte) error {
	p := w.peer()
	err := p.write(t, body)
	if err == nil {
		return nil
	}
	if rerr := w.reconnect(err, false); rerr != nil {
		return &PeerLossError{Party: 0, Cause: rerr}
	}
	if err := w.peer().write(t, body); err != nil {
		return &PeerLossError{Party: 0, Cause: err}
	}
	return nil
}

func (w *Worker) curSeq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// NextJob blocks for the next job spec. It returns ErrShutdown on an
// orderly session end and *PeerLossError if the coordinator vanishes for
// good. Duplicate job deliveries (a rejoin resync racing the broadcast)
// are skipped by job sequence number, so a job never runs twice.
func (w *Worker) NextJob() ([]byte, error) {
	for {
		p := w.peer()
		f, ok := <-p.inbox
		if !ok {
			if rerr := w.reconnect(p.readErr, true); rerr != nil {
				return nil, &PeerLossError{Party: 0, Cause: rerr}
			}
			continue
		}
		switch f.typ {
		case fJobStart:
			jseq, job, err := decodeJobStart(f.body)
			if err != nil {
				return nil, err
			}
			w.mu.Lock()
			if jseq <= w.lastJobSeq {
				w.mu.Unlock()
				continue // duplicate resync of a job already running or done
			}
			w.lastJobSeq = jseq
			w.lastResult = nil
			w.mu.Unlock()
			return job, nil
		case fMerged, fAssign:
			continue // stale resync for an exchange already completed
		case fShutdown:
			return nil, ErrShutdown
		case fError:
			return nil, fmt.Errorf("transport: coordinator: %s", f.body)
		default:
			return nil, fmt.Errorf("transport: unexpected %s frame awaiting job", f.typ)
		}
	}
}

// Exchange implements Transport: ship this party's records, serve any
// mid-round reassignments (a lost peer's machines, re-executed here by
// exact replay), and block at the barrier until the coordinator's merged
// round arrives. The merged frame's sequence number and round metadata
// must match this party's own — the SPMD divergence check. A connection
// failure anywhere in the round is recycled through reconnect: the
// records are re-sent (the coordinator's merge dedups) and stale resync
// frames are skipped by sequence number.
func (w *Worker) Exchange(meta RoundMeta, assign [][]int, local []Record, exec ExecFunc) ([]Record, error) {
	w.mu.Lock()
	w.seq++
	seq := w.seq
	w.cur = meta
	w.mu.Unlock()
	if w.opts.TestDieAtSeq > 0 && seq == w.opts.TestDieAtSeq &&
		(w.opts.TestDieAtParty == 0 || w.opts.TestDieAtParty == w.self) {
		// Deterministic mid-round crash for the recovery tests: vanish
		// without ceremony, exactly like a killed worker process.
		os.Exit(TestDieExitCode)
	}
	if w.opts.TestDropConnAtSeq > 0 && seq == w.opts.TestDropConnAtSeq &&
		(w.opts.TestDropConnAtParty == 0 || w.opts.TestDropConnAtParty == w.self) {
		// Deterministic mid-round link failure: kill the connection under
		// the session's feet and let the rejoin machinery recover.
		w.peer().conn.Close()
	}
	// Ship the previous rounds' buffered telemetry first, so everything a
	// party observed before this barrier is on the coordinator's side of
	// the wire before (FIFO per conn) this round's records. A worker that
	// dies mid-round therefore loses at most the events since its last
	// barrier.
	w.flushTelemetry()
	mine := make(map[int]bool, len(local))
	for _, r := range local {
		mine[r.Machine] = true
	}
	body, err := encodeRecords(w.codec, seq, meta, local)
	if err != nil {
		return nil, err
	}
	if err := w.sendFrame(fRecords, body); err != nil {
		return nil, err
	}
	for {
		p := w.peer()
		f, ok := <-p.inbox
		if !ok {
			if rerr := w.reconnect(p.readErr, false); rerr != nil {
				return nil, &PeerLossError{Party: 0, Cause: rerr}
			}
			// The coordinator may never have seen this round's records;
			// re-send them (its merge dedups if it did).
			if err := w.sendFrame(fRecords, body); err != nil {
				return nil, err
			}
			continue
		}
		switch f.typ {
		case fAssign:
			aseq, ids, err := decodeAssign(f.body)
			if err != nil {
				return nil, err
			}
			if aseq < seq {
				continue // duplicate re-delivery for an already-merged round
			}
			if aseq > seq {
				trace.FlightTrigger("transport: exchange divergence")
				return nil, &DivergenceError{Seq: aseq, WantSeq: seq, Want: meta, Got: meta}
			}
			recs, err := exec(ids)
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				mine[r.Machine] = true
			}
			rbody, err := encodeRecords(w.codec, seq, meta, recs)
			if err != nil {
				return nil, err
			}
			if err := w.sendFrame(fRecords, rbody); err != nil {
				return nil, err
			}
			w.mu.Lock()
			w.st.Reassigns++
			w.mu.Unlock()
		case fMerged:
			mseq, mmeta, recs, err := decodeRecords(w.codec, f.body)
			if err != nil {
				return nil, err
			}
			if mseq < seq {
				continue // duplicate barrier from a rejoin resync race
			}
			if mseq != seq || mmeta != meta {
				derr := &DivergenceError{Seq: mseq, WantSeq: seq, Want: meta, Got: mmeta}
				trace.FlightTrigger("transport: exchange divergence")
				w.peer().write(fError, []byte(derr.Error()))
				return nil, derr
			}
			for i := range recs {
				if mine[recs[i].Machine] {
					recs[i].Remote = false
				}
			}
			w.mu.Lock()
			w.st.Exchanges++
			w.lastAcked = seq
			w.mu.Unlock()
			return recs, nil
		case fJobStart:
			continue // duplicate job resync; this job is already running
		case fShutdown:
			return nil, ErrShutdown
		case fError:
			return nil, fmt.Errorf("transport: coordinator: %s", f.body)
		default:
			return nil, fmt.Errorf("transport: unexpected %s frame during exchange", f.typ)
		}
	}
}

// FinishJob ships the worker's end-of-job result digest for the
// coordinator's cross-check, flushing any remaining telemetry first (the
// conn is FIFO, so the coordinator sees the telemetry before the result).
// The result is retained so a reconnect can re-send it if it died on the
// wire; the jobSeq prefix dedups on the coordinator.
func (w *Worker) FinishJob(result []byte) error {
	w.flushTelemetry()
	w.mu.Lock()
	jseq := w.lastJobSeq
	w.lastResult = append([]byte(nil), result...)
	w.lastResultJob = jseq
	w.mu.Unlock()
	return w.sendFrame(fResult, encodeResult(jseq, result))
}

// Status snapshots the worker's live view of the session for the -status
// endpoint. Its single peer row is the coordinator link.
func (w *Worker) Status() Status {
	now := time.Now()
	w.mu.Lock()
	seq, cur := w.seq, w.cur
	p := w.p
	ret := w.retired
	graceNs := w.graceNs
	w.mu.Unlock()
	ps := PeerStats{
		Party:         0,
		Alive:         true,
		BytesIn:       ret.bytesIn + p.bytesIn.Load(),
		BytesOut:      ret.bytesOut + p.bytesOut.Load(),
		Frames:        ret.frames + p.frames.Load(),
		RTTP99:        p.rttP99(),
		Reconnects:    ret.reconnects,
		CorruptFrames: ret.corrupt + p.corrupt.Load(),
	}
	if ns := p.lastHeardNs.Load(); ns > 0 {
		ps.LastHeard = time.Unix(0, ns)
	}
	return Status{
		Role:           "worker",
		Parties:        w.parties,
		Self:           w.self,
		Seq:            seq,
		Round:          cur.Round,
		Name:           cur.Name,
		Phase:          cur.Phase,
		Alive:          2,
		HeartbeatMs:    float64(w.opts.HeartbeatInterval) / float64(time.Millisecond),
		PeerDeadlineMs: float64(w.opts.PeerTimeout) / float64(time.Millisecond),
		RejoinGraceMs:  float64(graceNs) / float64(time.Millisecond),
		Wire:           w.Stats(),
		Peers:          []PeerStatus{peerStatus(ps, now)},
	}
}

// Stats implements Transport.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	st := w.st
	ret := w.retired
	p := w.p
	w.mu.Unlock()
	st.BytesIn = ret.bytesIn + p.bytesIn.Load()
	st.BytesOut = ret.bytesOut + p.bytesOut.Load()
	st.Frames = ret.frames + p.frames.Load()
	st.CorruptFrames = ret.corrupt + p.corrupt.Load()
	return st
}

// Close implements Transport.
func (w *Worker) Close() error {
	w.peer().close()
	return nil
}

// encodeJobStart prefixes the opaque job spec with the coordinator's job
// sequence number so duplicate deliveries (rejoin resync racing the
// broadcast) are detectable.
func encodeJobStart(jobSeq uint64, job []byte) []byte {
	buf := binary.AppendUvarint(nil, jobSeq)
	return append(buf, job...)
}

func decodeJobStart(body []byte) (uint64, []byte, error) {
	jseq, data, err := readUvarint(body)
	if err != nil {
		return 0, nil, err
	}
	return jseq, data, nil
}

// encodeResult prefixes the result digest with the job sequence number it
// answers, so a re-sent result from a recovered connection can never be
// mistaken for a later job's.
func encodeResult(jobSeq uint64, result []byte) []byte {
	buf := binary.AppendUvarint(nil, jobSeq)
	return append(buf, result...)
}

func decodeResult(body []byte) (uint64, []byte, error) {
	jseq, data, err := readUvarint(body)
	if err != nil {
		return 0, nil, err
	}
	return jseq, data, nil
}
