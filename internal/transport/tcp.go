package transport

import (
	"crypto/rand"
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
	// HeartbeatInterval, PeerTimeout and RejoinGrace are the session's
	// liveness settings. They are set on the coordinator; a worker adopts
	// the coordinator's from the welcome frame in place of its own.
	//
	// HeartbeatInterval is how often each side pings an idle connection.
	HeartbeatInterval time.Duration // default 250ms
	// PeerTimeout is the rolling read deadline: a peer silent for this
	// long (no frames, no heartbeats) is declared lost.
	PeerTimeout time.Duration // default 3s
	// RejoinGrace holds a lost worker's slot open for this long: instead
	// of immediate eviction the worker is held suspect, and if it redials
	// with the session token inside the window it resumes its slot with no
	// deterministic-state loss. Zero (the default) keeps the historical
	// behavior — any connection failure evicts the peer. Workers bound
	// their reconnect loop by it.
	RejoinGrace time.Duration
	// CorruptTolerance caps cumulative corrupt frames per peer slot before
	// the coordinator stops offering rejoin and evicts the peer for good.
	// Zero or negative means DefaultCorruptTolerance; no flag sets it, only
	// tests that need a hair trigger or none.
	CorruptTolerance int
	// WrapConn, when non-nil, wraps every connection the coordinator
	// accepts, registrations and rejoins alike. This is the injection
	// point for internal/netchaos; wrappers exposing an Arm() method start
	// disarmed and are armed only after the handshake completes.
	WrapConn func(net.Conn) net.Conn
	// OnEvent, when non-nil, receives transport-level trace events
	// (handshake, exchange barriers, peer losses, reassignments).
	OnEvent func(trace.TransportEvent)
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
	if o.CorruptTolerance <= 0 {
		o.CorruptTolerance = DefaultCorruptTolerance
	}
	return o
}

// handshakeTimeout bounds worker registration (process spawn + dial +
// hello/welcome) and each rejoin handshake.
const handshakeTimeout = 30 * time.Second

// event stamps a transport event of t and hands it to the process log
// (which self-triggers a flight dump on peer loss) and to the session's
// own observer, wired separately via OnEvent, so neither records twice.
func (o *Options) event(t Transport, e trace.TransportEvent) {
	if o.OnEvent == nil && !trace.Recording() {
		return
	}
	e.At = time.Now()
	e.Bytes = t.Stats().BytesOut
	trace.FlightTransport(e)
	if o.OnEvent != nil {
		o.OnEvent(e)
	}
}

// ms expresses d in milliseconds, the status endpoint's unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestDieExitCode is the exit status of a worker killed by TestDieAtSeq,
// distinguishable from crashes in test assertions.
const TestDieExitCode = 3

// ErrShutdown reports an orderly session end: the coordinator told the
// worker there are no more jobs.
var ErrShutdown = errors.New("transport: session shut down")

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

// with returns the slot's session totals: its retired connections'
// counters plus those of p, the live one.
func (s slotCounters) with(p *peer) slotCounters {
	s.bytesIn += p.bytesIn.Load()
	s.bytesOut += p.bytesOut.Load()
	s.frames += p.frames.Load()
	s.corrupt += p.corrupt.Load()
	return s
}

func (s *slotCounters) retire(p *peer) { *s = s.with(p) }

// row is the slot's status row: its session totals with live connection
// p, and p's heartbeat view at now.
func (s slotCounters) row(party int, alive bool, p *peer, now time.Time) PeerStatus {
	t := s.with(p)
	ps := PeerStatus{Party: party, Alive: alive, BytesIn: t.bytesIn, BytesOut: t.bytesOut, Frames: t.frames,
		RTTP99Ms: ms(p.rttP99()), LastHeardMs: -1, Reconnects: t.reconnects, CorruptFrames: t.corrupt}
	if ns := p.lastHeardNs.Load(); ns > 0 {
		ps.LastHeardMs = ms(now.Sub(time.Unix(0, ns)))
	}
	return ps
}

// addWire adds slot totals t to st's wire counters.
func (st *Stats) addWire(t slotCounters) {
	st.BytesIn += t.bytesIn
	st.BytesOut += t.bytesOut
	st.Frames += t.frames
	st.CorruptFrames += t.corrupt
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
// count and the worker's party index, the session-resume token, the
// liveness settings, and the payload-codec name table — so the two
// processes agree on every wire id and deadline before any round runs.
// With a rejoin grace configured the listener stays open for
// session-resume redials until Close.
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
	deadline := time.Now().Add(handshakeTimeout)
	for i := 0; i < workers; i++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: waiting for worker %d/%d: %w", i+1, workers, err)
		}
		p, _, err := c.admit(conn, i+1, false, deadline)
		if err == nil {
			err = p.write(fWelcome, c.welcomeFor(i+1))
		}
		if err != nil {
			p.close()
			c.Close()
			return nil, fmt.Errorf("transport: worker %d: %w", i+1, err)
		}
		p.conn.SetDeadline(time.Time{})
		c.peers = append(c.peers, p)
	}
	if opts.RejoinGrace > 0 {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Time{})
		}
		c.ln = ln
		go c.acceptLoop(ln)
	}
	for i, p := range c.peers {
		p.start(opts.HeartbeatInterval)
		go c.pump(i, p, 0)
	}
	c.opts.event(c, trace.TransportEvent{Kind: trace.TransportHandshake, Party: -1, IDs: workers})
	return c, nil
}

// admit wraps a freshly accepted worker connection and reads its hello
// under the handshake deadline, which stays set for the welcome. It is the
// one hello reader, for registration and resume alike: the hello must
// carry this binary's protocol version and the resume flag the caller
// expects, and a mismatch is answered with fError.
func (c *Coordinator) admit(conn net.Conn, party int, resume bool, deadline time.Time) (*peer, hello, error) {
	if c.opts.WrapConn != nil {
		conn = c.opts.WrapConn(conn)
	}
	p := newPeer(conn, party, c.opts.PeerTimeout)
	p.conn.SetDeadline(deadline)
	f, err := p.read()
	if err != nil {
		return p, hello{}, fmt.Errorf("hello: %w", err)
	}
	if f.typ != fHello {
		return p, hello{}, fmt.Errorf("sent %s, want hello", f.typ)
	}
	var h hello
	err = noTable.ReadValue(f.body, &h)
	switch {
	case h.Magic != helloMagic:
		return p, h, fmt.Errorf("transport: bad hello magic %#x", h.Magic)
	case h.Version != ProtocolVersion:
		return p, h, refuse(p, fmt.Sprintf("protocol version mismatch: coordinator %d, worker %d", ProtocolVersion, h.Version))
	case err != nil:
		return p, h, err
	case h.Resume && !resume:
		return p, h, refuse(p, "session-resume hello during registration")
	case !h.Resume && resume:
		return p, h, refuse(p, "expected session-resume hello")
	}
	return p, h, nil
}

// refuse answers a worker's hello with fError and returns the refusal.
func refuse(p *peer, msg string) error {
	p.write(fError, []byte(msg))
	return errors.New(msg)
}

// welcomeFor builds the one fWelcome body, for registration and resume
// alike, addressed to the worker at party.
func (c *Coordinator) welcomeFor(party int) []byte {
	return appendBody(welcome{
		Magic:   helloMagic,
		Version: ProtocolVersion,
		Parties: len(c.state) + 1, // one slot per worker, fixed at construction
		Self:    party,
		ClockNs: time.Now().UnixNano(),
		// Workers ship telemetry whenever the coordinator's event log
		// records — the flight recorder is on (the default) or a trace was
		// requested: a dump or a trace needs every party's events, and
		// shipping is out-of-band by contract — only advisory wire volume
		// changes, never a deterministic counter.
		Telemetry:     trace.Recording(),
		Token:         c.token,
		HeartbeatNs:   int64(c.opts.HeartbeatInterval),
		PeerTimeoutNs: int64(c.opts.PeerTimeout),
		GraceNs:       int64(c.opts.RejoinGrace),
		Table:         c.codec.Table(),
	})
}

// pump forwards one connection's inbox into the shared event channel,
// reporting the connection's death when the inbox closes. It is the
// coordinator's only reader of p.inbox.
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
			c.opts.event(c, trace.TransportEvent{Kind: trace.TransportCorrupt, Party: w + 1, Seq: c.curSeq()})
		}
		c.opts.event(c, trace.TransportEvent{Kind: trace.TransportSuspect, Party: w + 1, Seq: c.curSeq()})
		return
	}
	c.state[w] = peerDead
	c.st.PeersLost++
	c.mu.Unlock()
	p.close()
	if isCorrupt {
		c.opts.event(c, trace.TransportEvent{Kind: trace.TransportCorrupt, Party: w + 1, Seq: c.curSeq()})
	}
	if overTol {
		trace.FlightTrigger("transport: corrupt-frame burst")
	}
	c.opts.event(c, trace.TransportEvent{Kind: trace.TransportPeerLost, Party: w + 1, Seq: c.curSeq()})
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
	c.opts.event(c, trace.TransportEvent{Kind: trace.TransportPeerLost, Party: w + 1, Seq: c.curSeq()})
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
	p, h, err := c.admit(conn, 0, true, time.Now().Add(handshakeTimeout))
	if err != nil {
		p.close()
		return
	}
	w := h.Party - 1
	c.mu.Lock()
	var refusal string
	switch {
	case c.closing || c.token == "" || h.Token != c.token || w < 0 || w >= len(c.peers):
		refusal = "bad resume token or party"
	case c.state[w] == peerDead:
		refusal = "party evicted (rejoin grace expired)"
	}
	if refusal != "" {
		c.mu.Unlock()
		refuse(p, refusal)
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
	c.mu.Unlock()
	if old != p {
		old.close()
	}
	err = p.write(fWelcome, c.welcomeFor(h.Party))
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
	p.start(c.opts.HeartbeatInterval)
	go c.pump(w, p, gen)
	c.opts.event(c, trace.TransportEvent{Kind: trace.TransportReconnect, Party: h.Party, Seq: c.curSeq()})
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
	body := appendBody(jobBody{Seq: c.jobSeq, Data: job})
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
	// merged keeps the first record of each machine.
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
	var rb recordsBody
	if err := x.c.codec.ReadValue(body, &rb); err != nil {
		return fmt.Errorf("transport: worker %d records: %w", w+1, err)
	}
	if rb.Seq < x.seq {
		return nil // a rejoining worker re-sent an already-merged round
	}
	if rb.Seq != x.seq || rb.Meta != x.meta {
		trace.FlightTrigger("transport: exchange divergence")
		return &DivergenceError{Seq: rb.Seq, WantSeq: x.seq, Want: x.meta, Got: rb.Meta}
	}
	x.needBarrier[w] = false
	for _, r := range rb.Records {
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
		if err := p.write(fAssign, appendBody(assignBody{Seq: x.seq, IDs: ids})); err != nil {
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
			if err := p.write(fAssign, appendBody(assignBody{Seq: x.seq, IDs: ids})); err != nil {
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
		x.c.opts.event(x.c, trace.TransportEvent{Kind: trace.TransportReassign, Party: w + 1, Seq: x.seq, IDs: len(ids)})
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
	body, err := c.codec.AppendValue(nil, recordsBody{Seq: seq, Meta: meta, Records: out})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.lastMergedSeq, c.lastMergedBody = seq, body
	c.st.Exchanges++
	c.mu.Unlock()
	c.sendAll(fMerged, body)
	c.opts.event(c, trace.TransportEvent{Kind: trace.TransportExchange, Party: -1, Seq: seq, IDs: len(out)})
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
	var jb jobBody
	if err := noTable.ReadValue(body, &jb); err != nil {
		return fmt.Errorf("transport: worker %d result: %w", w+1, err)
	}
	if jb.Seq == r.jobSeq && r.out[w] == nil {
		r.out[w], r.settled[w] = jb.Data, true
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
		c.addTelemetry(w+1, f.body)
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

// addTelemetry logs one fTelemetry body from party's connection in the
// process log, as it arrives, so a flight dump taken mid-job already holds
// the workers' recent events. Telemetry is out-of-band, so a malformed
// frame is dropped rather than failing the round it arrived during.
func (c *Coordinator) addTelemetry(party int, body []byte) {
	var tb telemetryBody
	if noTable.ReadValue(body, &tb) == nil {
		trace.FlightIngest(party, tb.Events)
	}
}

// Status snapshots the coordinator's live view of the session for the
// -status endpoint: one peer row per worker, ordered by party index, whose
// counters include every retired connection the slot has burned through.
// Safe to call from any goroutine.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	seq, cur := c.seq, c.cur
	peers := append([]*peer(nil), c.peers...)
	states := append([]peerState(nil), c.state...)
	ret := append([]slotCounters(nil), c.retired...)
	c.mu.Unlock()
	st := Status{
		Role:           "coordinator",
		Parties:        len(peers) + 1,
		Self:           0,
		Seq:            seq,
		Round:          cur.Round,
		Name:           cur.Name,
		Phase:          cur.Phase,
		Alive:          1,
		HeartbeatMs:    ms(c.opts.HeartbeatInterval),
		PeerDeadlineMs: ms(c.opts.PeerTimeout),
		RejoinGraceMs:  ms(c.opts.RejoinGrace),
		Wire:           c.Stats(),
	}
	for i, p := range peers {
		row := ret[i].row(i+1, states[i] == peerUp, p, now)
		if row.Alive {
			st.Alive++
		}
		st.Peers = append(st.Peers, row)
	}
	return st
}

// Shutdown ends the session in order: every live worker is told there are
// no more jobs, then the connections close. The coordinator is closing
// before the first shutdown frame leaves, so a worker that hangs up on
// that frame ends its slot cleanly instead of counting as a peer loss.
func (c *Coordinator) Shutdown() { c.close(true) }

// Stats implements Transport.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := c.st
	peers := append([]*peer(nil), c.peers...)
	ret := append([]slotCounters(nil), c.retired...)
	c.mu.Unlock()
	for i, p := range peers {
		st.addWire(ret[i].with(p))
	}
	return st
}

// Close implements Transport.
func (c *Coordinator) Close() error {
	c.close(false)
	return nil
}

// close marks the coordinator closing, which stops connFailed and the
// grace timers from evicting anyone, tells every live worker the session
// is over when shutdown is set, and tears the connections down. Only the
// first call does anything.
func (c *Coordinator) close(shutdown bool) {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return
	}
	c.closing = true
	timers := c.timers
	c.timers = nil
	peers := append([]*peer(nil), c.peers...)
	states := append([]peerState(nil), c.state...)
	ln := c.ln
	c.mu.Unlock()
	for w, p := range peers {
		if shutdown && states[w] == peerUp {
			p.write(fShutdown, nil)
		}
	}
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

	addr  string // coordinator address, for reconnect
	token string // session-resume credential from the welcome

	// telemetry reflects the coordinator's welcome flag; offsetNs is this
	// process's handshake-time estimate of (coordinator clock - local
	// clock); source produces the next events to ship (set by the host via
	// SetTelemetrySource).
	telemetry bool
	offsetNs  int64
	source    func() []trace.Event

	// mu guards the connection (swapped on reconnect), counters, and the
	// recovery bookkeeping; Stats may read them from another goroutine.
	mu            sync.Mutex
	p             *peer
	st            Stats
	seq           int
	retired       slotCounters
	lastAcked     int    // last merged exchange fully processed
	lastJobSeq    uint64 // last fJobStart consumed (dedups resyncs)
	lastResult    []byte // FinishJob's fResult body, re-sent after a reconnect
	lastResultJob uint64
}

// DialWorker connects to a coordinator and completes the registration
// handshake, adopting the coordinator's payload-codec table, the
// session-resume token and the liveness settings: opts' own heartbeat
// interval, peer timeout and rejoin grace are not used.
func DialWorker(addr string, opts Options) (*Worker, error) {
	p, wel, offset, err := dial(addr, &opts, hello{Magic: helloMagic, Version: ProtocolVersion})
	if err != nil {
		return nil, err
	}
	codec, err := NewCodecFor(wel.Table)
	if err != nil {
		p.write(fError, []byte(err.Error()))
		p.close()
		return nil, err
	}
	return &Worker{
		opts: wel.liveness(opts), p: p, codec: codec, parties: wel.Parties, self: wel.Self,
		addr: addr, token: wel.Token, telemetry: wel.Telemetry, offsetNs: offset,
	}, nil
}

// dial is the worker's one handshake, for registration and resume alike:
// connect, trade hello h for a welcome of this protocol version under the
// handshake deadline, and start the connection with the welcome's
// liveness settings. A coordinator's fError answer comes back as a
// *RefusedError. offsetNs estimates the coordinator's clock minus this
// process's.
func dial(addr string, opts *Options, h hello) (p *peer, wel welcome, offsetNs int64, err error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, wel, 0, fmt.Errorf("transport: dialing coordinator: %w", err)
	}
	p = newPeer(conn, 0, 0)
	defer func() {
		if err != nil {
			p.close()
			p = nil
		}
	}()
	p.conn.SetDeadline(time.Now().Add(handshakeTimeout))
	sentNs := time.Now().UnixNano()
	if err := p.write(fHello, appendBody(h)); err != nil {
		return p, wel, 0, fmt.Errorf("transport: hello: %w", err)
	}
	f, err := p.read()
	recvNs := time.Now().UnixNano()
	switch {
	case err != nil:
		return p, wel, 0, fmt.Errorf("transport: awaiting welcome: %w", err)
	case f.typ == fError:
		return p, wel, 0, &RefusedError{Resume: h.Resume, Reason: string(f.body)}
	case f.typ != fWelcome:
		return p, wel, 0, fmt.Errorf("transport: coordinator sent %s, want welcome", f.typ)
	}
	err = noTable.ReadValue(f.body, &wel)
	switch {
	case wel.Magic != helloMagic:
		return p, wel, 0, fmt.Errorf("transport: bad welcome magic %#x", wel.Magic)
	case wel.Version != ProtocolVersion:
		return p, wel, 0, fmt.Errorf("transport: protocol version mismatch: worker %d, coordinator %d", ProtocolVersion, wel.Version)
	case err != nil:
		return p, wel, 0, err
	}
	live := wel.liveness(*opts)
	p.conn.SetDeadline(time.Time{})
	p.timeout = live.PeerTimeout
	p.start(live.HeartbeatInterval)
	// NTP-style midpoint: the coordinator stamped its clock somewhere
	// inside our hello->welcome round trip, so the best local estimate of
	// "when" is the midpoint. The residual error is bounded by half the
	// RTT asymmetry — sub-millisecond on one host.
	return p, wel, wel.ClockNs - (sentNs+recvNs)/2, nil
}

// TelemetryEnabled reports whether the coordinator asked for telemetry
// shipping in its welcome.
func (w *Worker) TelemetryEnabled() bool { return w.telemetry }

// SetTelemetrySource installs the callback that produces the events to
// ship; it is invoked at each round barrier and at job end, and should
// drain (not re-report) its buffer. The transport rebases every event onto
// the coordinator's clock before shipping it. Call before the first
// Exchange.
func (w *Worker) SetTelemetrySource(fn func() []trace.Event) { w.source = fn }

// peer returns the current connection (swapped under mu on reconnect).
func (w *Worker) peer() *peer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.p
}

// flushTelemetry ships the source's events, if telemetry is on and there
// are any, with every time rebased onto the coordinator's clock (a zero
// time means "none" and stays zero). Send errors are dropped: the next
// mandatory frame on the same conn surfaces the broken wire with better
// context.
func (w *Worker) flushTelemetry() {
	if !w.telemetry || w.source == nil {
		return
	}
	events := w.source()
	if len(events) == 0 {
		return
	}
	for i := range events {
		e := &events[i]
		if e.StartNs != 0 {
			e.StartNs += w.offsetNs
		}
		if e.EndNs != 0 {
			e.EndNs += w.offsetNs
		}
	}
	_ = w.peer().write(fTelemetry, appendBody(telemetryBody{Events: events}))
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
// not on offer or the window is exhausted; a coordinator's refusal
// (evicted, bad token) aborts the loop immediately.
func (w *Worker) reconnect(cause error, needJob bool) error {
	w.mu.Lock()
	old := w.p
	w.retired.retire(old)
	h := hello{Magic: helloMagic, Version: ProtocolVersion, Resume: true, Token: w.token, Party: w.self, LastAcked: w.lastAcked, NeedJob: needJob}
	lastResult, lastResultJob, lastJobSeq := w.lastResult, w.lastResultJob, w.lastJobSeq
	w.mu.Unlock()
	old.close()
	var cfe *CorruptFrameError
	if errors.As(cause, &cfe) {
		w.opts.event(w, trace.TransportEvent{Kind: trace.TransportCorrupt, Party: 0, Seq: w.curSeq()})
	}
	if w.opts.RejoinGrace <= 0 || h.Token == "" {
		return cause
	}
	deadline := time.Now().Add(w.opts.RejoinGrace)
	backoff := 25 * time.Millisecond
	for {
		p, _, _, err := dial(w.addr, &w.opts, h)
		if err == nil {
			w.mu.Lock()
			w.p = p
			w.st.Reconnects++
			w.retired.reconnects++
			w.mu.Unlock()
			w.opts.event(w, trace.TransportEvent{Kind: trace.TransportReconnect, Party: 0, Seq: w.curSeq()})
			if needJob && lastResult != nil && lastResultJob == lastJobSeq {
				// The result may have died with the old connection while
				// the coordinator still waits on it; the jobSeq prefix
				// makes a duplicate harmless.
				_ = p.write(fResult, lastResult)
			}
			return nil
		}
		var refused *RefusedError
		if errors.As(err, &refused) {
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

// receive is the worker's one receive loop, for its two waits on the
// coordinator: a job start between jobs (needJob), and an exchange's
// assigns and merged round. It hands handle each frame of the wait's own
// types until handle reports the wait over. A resync frame that belongs
// to the other wait is stale and skipped: a job start during a round, a
// merged round or an assign between jobs. A dead connection is recycled
// through reconnect (which asks for the job spec when needJob), and then
// resend, the round's records (nil between jobs), goes out again.
// fShutdown ends the wait with ErrShutdown and fError with the
// coordinator's error; any other frame is unexpected.
func (w *Worker) receive(needJob bool, resend []byte, handle func(frame) (bool, error)) error {
	for {
		p := w.peer()
		f, ok := <-p.inbox
		if !ok {
			if rerr := w.reconnect(p.readErr, needJob); rerr != nil {
				return &PeerLossError{Party: 0, Cause: rerr}
			}
			// The coordinator may never have seen this round's records;
			// re-send them (its merge dedups if it did).
			if resend != nil {
				if err := w.sendFrame(fRecords, resend); err != nil {
					return err
				}
			}
			continue
		}
		switch f.typ {
		case fJobStart, fAssign, fMerged:
			if needJob != (f.typ == fJobStart) {
				continue // a stale resync for the other wait
			}
			if done, err := handle(f); done || err != nil {
				return err
			}
		case fShutdown:
			return ErrShutdown
		case fError:
			return fmt.Errorf("transport: coordinator: %s", f.body)
		default:
			wait := "merged round"
			if needJob {
				wait = "job"
			}
			return fmt.Errorf("transport: unexpected %s frame awaiting %s", f.typ, wait)
		}
	}
}

// NextJob blocks for the next job spec. It returns ErrShutdown on an
// orderly session end and *PeerLossError if the coordinator vanishes for
// good. Duplicate job deliveries (a rejoin resync racing the broadcast)
// are skipped by job sequence number, so a job never runs twice.
func (w *Worker) NextJob() ([]byte, error) {
	var job []byte
	err := w.receive(true, nil, func(f frame) (bool, error) {
		var jb jobBody
		if err := noTable.ReadValue(f.body, &jb); err != nil {
			return false, err
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if jb.Seq <= w.lastJobSeq {
			return false, nil // duplicate resync of a job already running or done
		}
		w.lastJobSeq, w.lastResult, job = jb.Seq, nil, jb.Data
		return true, nil
	})
	return job, err
}

// Exchange implements Transport: ship this party's records, serve any
// mid-round reassignments (a lost peer's machines, re-executed here by
// exact replay), and block at the barrier until the coordinator's merged
// round arrives. The merged frame's sequence number and round metadata
// must match this party's own — the SPMD divergence check. A connection
// failure anywhere in the round is recycled by the receive loop: the
// records are re-sent (the coordinator's merge dedups) and stale resync
// frames are skipped by sequence number.
func (w *Worker) Exchange(meta RoundMeta, assign [][]int, local []Record, exec ExecFunc) ([]Record, error) {
	w.mu.Lock()
	w.seq++
	seq := w.seq
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
	body, err := w.codec.AppendValue(nil, recordsBody{Seq: seq, Meta: meta, Records: local})
	if err != nil {
		return nil, err
	}
	if err := w.sendFrame(fRecords, body); err != nil {
		return nil, err
	}
	var out []Record
	err = w.receive(false, body, func(f frame) (bool, error) {
		if f.typ == fAssign {
			return false, w.reassigned(seq, meta, f.body, exec)
		}
		var rb recordsBody
		err := w.codec.ReadValue(f.body, &rb)
		switch {
		case err != nil:
			return false, err
		case rb.Seq < seq:
			return false, nil // duplicate barrier from a rejoin resync race
		case rb.Seq != seq || rb.Meta != meta:
			derr := &DivergenceError{Seq: rb.Seq, WantSeq: seq, Want: meta, Got: rb.Meta}
			trace.FlightTrigger("transport: exchange divergence")
			w.peer().write(fError, []byte(derr.Error()))
			return false, derr
		}
		out = rb.Records
		w.mu.Lock()
		w.st.Exchanges++
		w.lastAcked = seq
		w.mu.Unlock()
		return true, nil
	})
	return out, err
}

// reassigned serves one fAssign of exchange seq: re-execute the machines
// a lost peer owed and ship their records. An assign of an earlier,
// merged exchange is a stale re-delivery.
func (w *Worker) reassigned(seq int, meta RoundMeta, body []byte, exec ExecFunc) error {
	var ab assignBody
	err := noTable.ReadValue(body, &ab)
	switch {
	case err != nil:
		return err
	case ab.Seq < seq:
		return nil // duplicate re-delivery for an already-merged round
	case ab.Seq > seq:
		trace.FlightTrigger("transport: exchange divergence")
		return &DivergenceError{Seq: ab.Seq, WantSeq: seq, Want: meta, Got: meta}
	}
	recs, err := exec(ab.IDs)
	if err != nil {
		return err
	}
	rbody, err := w.codec.AppendValue(nil, recordsBody{Seq: seq, Meta: meta, Records: recs})
	if err != nil {
		return err
	}
	if err := w.sendFrame(fRecords, rbody); err != nil {
		return err
	}
	w.mu.Lock()
	w.st.Reassigns++
	w.mu.Unlock()
	return nil
}

// FinishJob ships the worker's end-of-job result digest for the
// coordinator's cross-check, flushing any remaining telemetry first (the
// conn is FIFO, so the coordinator sees the telemetry before the result).
// The result is retained so a reconnect can re-send it if it died on the
// wire; the jobSeq prefix dedups on the coordinator.
func (w *Worker) FinishJob(result []byte) error {
	w.flushTelemetry()
	w.mu.Lock()
	body := appendBody(jobBody{Seq: w.lastJobSeq, Data: result})
	w.lastResult, w.lastResultJob = body, w.lastJobSeq
	w.mu.Unlock()
	return w.sendFrame(fResult, body)
}

// Stats implements Transport.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	st, ret, p := w.st, w.retired, w.p
	w.mu.Unlock()
	st.addWire(ret.with(p))
	return st
}

// Close implements Transport.
func (w *Worker) Close() error {
	w.peer().close()
	return nil
}
