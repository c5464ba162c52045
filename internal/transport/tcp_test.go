package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpcdist/internal/trace"
)

// recsFor builds the deterministic records a party would produce for its
// machine ids at a given exchange — the stand-in for real round execution.
func recsFor(ids []int, seq int) []Record {
	out := make([]Record, len(ids))
	for i, id := range ids {
		out[i] = Record{Machine: id, Ops: int64(100*seq + id), Started: true}
	}
	return out
}

// wantMerged is the full merged round every party must land on: machines
// 0..3 in id order, with Remote set from the observer's point of view.
func wantMerged(seq int, mine func(id int) bool) []Record {
	out := recsFor([]int{0, 1, 2, 3}, seq)
	for i := range out {
		out[i].Remote = !mine(out[i].Machine)
	}
	return out
}

// runWorker drives the worker half of a 3-exchange job and reports every
// merged round (or the first error) back on the channel.
type workerReport struct {
	merged [][]Record
	err    error
}

func runWorker(addr string, opts Options, rounds int) <-chan workerReport {
	ch := make(chan workerReport, 1)
	go func() {
		var rep workerReport
		defer func() { ch <- rep }()
		w, err := DialWorker(addr, opts)
		if err != nil {
			rep.err = err
			return
		}
		defer w.Close()
		if _, err := w.NextJob(); err != nil {
			rep.err = err
			return
		}
		assign := [][]int{{0, 1}, {2, 3}}
		// Reassignment replay must use the current round's inputs.
		exec := func(ids []int) ([]Record, error) { return recsFor(ids, w.curSeq()), nil }
		for seq := 1; seq <= rounds; seq++ {
			meta := RoundMeta{Round: seq - 1, Name: "round", Phase: "candidates"}
			m, err := w.Exchange(meta, assign, recsFor([]int{2, 3}, seq), exec)
			if err != nil {
				rep.err = err
				return
			}
			rep.merged = append(rep.merged, m)
		}
		if err := w.FinishJob([]byte("digest")); err != nil {
			rep.err = err
			return
		}
		if _, err := w.NextJob(); !errors.Is(err, ErrShutdown) {
			rep.err = err
		}
	}()
	return ch
}

// TestRejoinAfterConnDrop is the tentpole's core unit test, without any
// process machinery: one in-process worker severs its own connection at
// the start of exchange 2, and with a rejoin grace in force the session
// must heal through reconnect + slot resume — bit-identical merged rounds
// on both sides, one reconnect on the books, and neither an eviction nor
// a reassignment anywhere.
func TestRejoinAfterConnDrop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	ch := runWorker(ln.Addr().String(), Options{TestDropConnAtSeq: 2}, rounds)
	co, err := NewCoordinator(ln, 1, Options{RejoinGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.StartJob([]byte("job")); err != nil {
		t.Fatal(err)
	}
	exec := func(ids []int) ([]Record, error) {
		t.Errorf("local replay ran for %v; rejoin should have made it unnecessary", ids)
		return recsFor(ids, 0), nil
	}
	for seq := 1; seq <= rounds; seq++ {
		meta := RoundMeta{Round: seq - 1, Name: "round", Phase: "candidates"}
		m, err := co.Exchange(meta, [][]int{{0, 1}, {2, 3}}, recsFor([]int{0, 1}, seq), exec)
		if err != nil {
			t.Fatalf("exchange %d: %v", seq, err)
		}
		if want := wantMerged(seq, func(id int) bool { return id < 2 }); !reflect.DeepEqual(m, want) {
			t.Fatalf("exchange %d merged = %+v, want %+v", seq, m, want)
		}
	}
	results, err := co.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || string(results[0]) != "digest" {
		t.Fatalf("results = %q", results)
	}
	// Checked before Shutdown: a worker hanging up on the shutdown frame
	// can race the coordinator's own close and leave the slot suspect.
	if co.Alive() != 1 {
		t.Errorf("Alive() = %d, want 1", co.Alive())
	}
	co.Shutdown()

	rep := <-ch
	if rep.err != nil {
		t.Fatalf("worker: %v", rep.err)
	}
	for seq := 1; seq <= rounds; seq++ {
		if want := wantMerged(seq, func(id int) bool { return id >= 2 }); !reflect.DeepEqual(rep.merged[seq-1], want) {
			t.Fatalf("worker exchange %d merged = %+v, want %+v", seq, rep.merged[seq-1], want)
		}
	}

	st := co.Stats()
	if st.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.PeersLost != 0 || st.Reassigns != 0 {
		t.Errorf("PeersLost = %d, Reassigns = %d, want 0/0: the slot must resume, not be replaced", st.PeersLost, st.Reassigns)
	}
}

// flipConn corrupts one byte of armed inbound traffic; fired is shared
// across connections so the rejoin connection is clean (or, with a
// per-conn flag, every connection poisons itself — the eviction test).
type flipConn struct {
	net.Conn
	armed atomic.Bool
	fired *atomic.Bool
}

func (c *flipConn) Arm() { c.armed.Store(true) }

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.armed.Load() && c.fired.CompareAndSwap(false, true) {
		p[0] ^= 0x40
	}
	return n, err
}

// TestCorruptFrameRecyclesConn injects a single bit flip into the first
// worker frame the coordinator reads after the handshake. The CRC must
// catch it, the connection must recycle (never resynchronize), the worker
// must rejoin within the grace, and the exchange must still produce the
// exact merged round — with the corruption visible in the stats.
func TestCorruptFrameRecyclesConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	opts := Options{
		RejoinGrace: 5 * time.Second,
		WrapConn:    func(c net.Conn) net.Conn { return &flipConn{Conn: c, fired: &fired} },
	}
	ch := runWorker(ln.Addr().String(), Options{}, 1)
	co, err := NewCoordinator(ln, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.StartJob([]byte("job")); err != nil {
		t.Fatal(err)
	}
	exec := func(ids []int) ([]Record, error) {
		t.Errorf("local replay ran for %v", ids)
		return recsFor(ids, 1), nil
	}
	m, err := co.Exchange(RoundMeta{Round: 0, Name: "round", Phase: "candidates"},
		[][]int{{0, 1}, {2, 3}}, recsFor([]int{0, 1}, 1), exec)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if want := wantMerged(1, func(id int) bool { return id < 2 }); !reflect.DeepEqual(m, want) {
		t.Fatalf("merged = %+v, want %+v", m, want)
	}
	if _, err := co.Results(); err != nil {
		t.Fatal(err)
	}
	co.Shutdown()
	if rep := <-ch; rep.err != nil {
		t.Fatalf("worker: %v", rep.err)
	}
	st := co.Stats()
	if st.CorruptFrames < 1 {
		t.Errorf("CorruptFrames = %d, want >= 1", st.CorruptFrames)
	}
	if st.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1", st.Reconnects)
	}
	if st.PeersLost != 0 {
		t.Errorf("PeersLost = %d, want 0", st.PeersLost)
	}
}

// perConnFlip poisons the first armed read of EVERY connection, so each
// rejoin brings a fresh corrupt frame and the cumulative per-slot count
// climbs until the tolerance evicts the peer.
type perConnFlip struct {
	net.Conn
	armed atomic.Bool
	fired atomic.Bool
}

func (c *perConnFlip) Arm() { c.armed.Store(true) }

func (c *perConnFlip) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.armed.Load() && c.fired.CompareAndSwap(false, true) {
		p[0] ^= 0x40
	}
	return n, err
}

// TestCorruptToleranceEvicts checks the bounded-tolerance half of the
// contract: when a peer's link corrupts frames persistently (every
// connection, including rejoins), the cumulative per-slot count crosses
// CorruptTolerance, rejoin is refused, and the coordinator falls back to
// exact local replay — still completing the round.
func TestCorruptToleranceEvicts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		RejoinGrace:      5 * time.Second,
		CorruptTolerance: 1,
		WrapConn:         func(c net.Conn) net.Conn { return &perConnFlip{Conn: c} },
	}
	ch := runWorker(ln.Addr().String(), Options{}, 1)
	co, err := NewCoordinator(ln, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.StartJob([]byte("job")); err != nil {
		t.Fatal(err)
	}
	exec := func(ids []int) ([]Record, error) { return recsFor(ids, 1), nil }
	m, err := co.Exchange(RoundMeta{Round: 0, Name: "round", Phase: "candidates"},
		[][]int{{0, 1}, {2, 3}}, recsFor([]int{0, 1}, 1), exec)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if want := wantMerged(1, func(id int) bool { return true }); !reflect.DeepEqual(m, want) {
		t.Fatalf("merged = %+v, want %+v", m, want)
	}
	if _, err := co.Results(); err != nil {
		t.Fatal(err)
	}
	co.Shutdown()
	st := co.Stats()
	if st.PeersLost != 1 {
		t.Errorf("PeersLost = %d, want 1 (tolerance crossed)", st.PeersLost)
	}
	if st.CorruptFrames < 2 {
		t.Errorf("CorruptFrames = %d, want >= 2", st.CorruptFrames)
	}
	if st.Reassigns == 0 {
		t.Error("evicted worker's machines were never replayed")
	}
	// The worker ends with a permanent transport error — its rejoin was
	// refused — never a clean shutdown.
	if rep := <-ch; rep.err == nil {
		t.Error("worker finished cleanly despite eviction")
	}
}

// TestHandshakeRefusals covers each hello the coordinator turns away, at
// registration and on the rejoin listener. Every refusal is an fError
// answer that the worker's dial returns as a *RefusedError; a refused
// resume ends the worker's reconnect loop at once, not after the grace,
// and a refused registration fails NewCoordinator with the same reason.
func TestHandshakeRefusals(t *testing.T) {
	const grace = 5 * time.Second
	dialHello := func(addr string, h hello) error {
		p, _, _, err := dial(addr, &Options{}, h)
		if err == nil {
			p.close()
		}
		return err
	}
	// rawHello sends body as a hello frame and returns the coordinator's
	// fError answer the way dial does.
	rawHello := func(addr string, body []byte) error {
		conn, err := net.DialTimeout("tcp", addr, grace)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(grace))
		if _, err := conn.Write(appendFrame(nil, fHello, body)); err != nil {
			return err
		}
		f, err := readFrame(bufio.NewReader(conn))
		if err != nil {
			return err
		}
		if f.typ != fError {
			return fmt.Errorf("coordinator sent %s, want error", f.typ)
		}
		return &RefusedError{Reason: string(f.body)}
	}
	for _, tc := range []struct {
		name     string
		register bool // refused at registration, not on the rejoin listener
		try      func(addr string, c *Coordinator, w *Worker) error
		want     string
	}{
		{"version at registration", true, func(addr string, _ *Coordinator, _ *Worker) error {
			return dialHello(addr, hello{Magic: helloMagic, Version: ProtocolVersion + 1})
		}, "protocol version mismatch"},
		{"protocol 3 hello", true, func(addr string, _ *Coordinator, _ *Worker) error {
			// A fresh hello as protocol 3 wrote it: magic, version, flags.
			body := binary.AppendUvarint(binary.AppendUvarint(nil, helloMagic), 3)
			return rawHello(addr, append(body, 0))
		}, fmt.Sprintf("protocol version mismatch: coordinator %d, worker 3", ProtocolVersion)},
		{"resume at registration", true, func(addr string, _ *Coordinator, _ *Worker) error {
			return dialHello(addr, hello{Magic: helloMagic, Version: ProtocolVersion, Resume: true, Token: "token", Party: 1})
		}, "session-resume hello during registration"},
		{"plain hello on rejoin", false, func(addr string, _ *Coordinator, _ *Worker) error {
			return dialHello(addr, hello{Magic: helloMagic, Version: ProtocolVersion})
		}, "expected session-resume hello"},
		{"bad token", false, func(_ string, _ *Coordinator, w *Worker) error {
			w.token = "not the session token"
			return w.reconnect(io.EOF, false)
		}, "bad resume token or party"},
		{"evicted slot", false, func(_ string, c *Coordinator, w *Worker) error {
			c.mu.Lock()
			c.state[0] = peerDead
			c.mu.Unlock()
			return w.reconnect(io.EOF, false)
		}, "party evicted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addr := ln.Addr().String()
			opts := Options{RejoinGrace: grace}
			if tc.register {
				regErr := make(chan error, 1)
				go func() {
					_, err := NewCoordinator(ln, 1, opts)
					regErr <- err
				}()
				err = tc.try(addr, nil, nil)
				if rerr := <-regErr; rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
					t.Errorf("NewCoordinator() error = %v, want %q", rerr, tc.want)
				}
			} else {
				wch := make(chan *Worker, 1)
				go func() {
					w, err := DialWorker(addr, Options{})
					if err != nil {
						t.Error(err)
					}
					wch <- w
				}()
				c, cerr := NewCoordinator(ln, 1, opts)
				if cerr != nil {
					t.Fatal(cerr)
				}
				defer c.Close()
				w := <-wch
				if w == nil {
					t.FailNow()
				}
				defer w.Close()
				start := time.Now()
				err = tc.try(addr, c, w)
				if d := time.Since(start); d > grace/2 {
					t.Errorf("refusal took %v, want at once (grace %v)", d, grace)
				}
				if st := c.Stats(); st.Reconnects != 0 {
					t.Errorf("Reconnects = %d after a refusal", st.Reconnects)
				}
			}
			var re *RefusedError
			if !errors.As(err, &re) || !strings.Contains(re.Reason, tc.want) {
				t.Errorf("worker error = %v, want a *RefusedError for %q", err, tc.want)
			}
		})
	}
}

// TestAdmitBadMagic checks that a hello without the magic, from a stray
// connection rather than a worker, fails the handshake unanswered.
func TestAdmitBadMagic(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go b.Write(appendFrame(nil, fHello, appendBody(hello{Magic: 1, Version: ProtocolVersion})))
	p, _, err := (&Coordinator{}).admit(a, 1, false, time.Now().Add(5*time.Second))
	defer p.close()
	if err == nil || !strings.Contains(err.Error(), "bad hello magic 0x1") {
		t.Errorf("admit() error = %v, want a bad hello magic", err)
	}
}

// TestWorkerAdoptsLiveness dials a worker with zero Options into a
// coordinator with its own liveness settings: the worker must run on the
// coordinator's heartbeat interval, peer deadline and rejoin grace, all
// three learned from the welcome.
func TestWorkerAdoptsLiveness(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wch := make(chan *Worker, 1)
	go func() {
		w, err := DialWorker(ln.Addr().String(), Options{})
		if err != nil {
			t.Error(err)
		}
		wch <- w
	}()
	c, err := NewCoordinator(ln, 1, Options{HeartbeatInterval: 40 * time.Millisecond,
		PeerTimeout: 900 * time.Millisecond, RejoinGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := <-wch
	if w == nil {
		t.FailNow()
	}
	defer w.Close()
	st := w.Status()
	if st.HeartbeatMs != 40 || st.PeerDeadlineMs != 900 || st.RejoinGraceMs != 2000 {
		t.Errorf("worker status heartbeat %vms, deadline %vms, grace %vms; want 40, 900, 2000",
			st.HeartbeatMs, st.PeerDeadlineMs, st.RejoinGraceMs)
	}
	if d := w.peer().timeout; d != 900*time.Millisecond {
		t.Errorf("worker connection read deadline %v, want 900ms", d)
	}
}

// stallConn holds the coordinator's shutdown frame to one worker until
// release returns, so the other worker can hang up on its own shutdown
// frame first.
type stallConn struct {
	net.Conn
	release func()
}

func (c *stallConn) Write(p []byte) (int, error) {
	if len(p) == frameOverhead && frameType(p[0]) == fShutdown {
		c.release()
	}
	return c.Conn.Write(p)
}

// TestShutdownIsNotPeerLoss ends a two-worker session while the first
// worker has already closed its connection on the shutdown frame and the
// second has not yet been told: a clean session end must evict nobody and
// log no peer-lost event, however the workers' hang-ups interleave with
// the coordinator's shutdown writes.
func TestShutdownIsNotPeerLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			w, err := DialWorker(ln.Addr().String(), Options{})
			if err == nil {
				_, err = w.NextJob()
				w.Close()
			}
			exited <- err
		}()
	}
	lost := make(chan struct{}, 4)
	var conns atomic.Int32
	co, err := NewCoordinator(ln, 2, Options{
		OnEvent: func(e trace.TransportEvent) {
			if e.Kind == trace.TransportPeerLost {
				lost <- struct{}{}
			}
		},
		WrapConn: func(c net.Conn) net.Conn {
			if conns.Add(1) != 2 {
				return c
			}
			return &stallConn{Conn: c, release: func() {
				// The first worker exits on its shutdown frame; give the
				// coordinator time to notice the hang-up before the second
				// worker is told.
				if err := <-exited; !errors.Is(err, ErrShutdown) {
					t.Errorf("first worker: %v, want ErrShutdown", err)
				}
				select {
				case <-lost:
					lost <- struct{}{}
				case <-time.After(500 * time.Millisecond):
				}
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	co.Shutdown()
	if err := <-exited; !errors.Is(err, ErrShutdown) {
		t.Errorf("second worker: %v, want ErrShutdown", err)
	}
	if st := co.Stats(); st.PeersLost != 0 {
		t.Errorf("PeersLost = %d after a clean shutdown, want 0", st.PeersLost)
	}
	if len(lost) != 0 {
		t.Error("a clean shutdown logged a peer-lost event")
	}
}
