package transport

import (
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
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

// normMsgs nils out empty outboxes: the wire codec decodes an absent
// outbox as an empty slice, which is semantically identical to the nil a
// fresh Record carries.
func normMsgs(recs []Record) []Record {
	for i := range recs {
		if len(recs[i].Msgs) == 0 {
			recs[i].Msgs = nil
		}
	}
	return recs
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
		exec := func(ids []int) ([]Record, error) { return recsFor(ids, w.curSeqForTest()), nil }
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

// curSeqForTest exposes the worker's exchange counter to the test exec
// closure (reassignment replay must use the current round's inputs).
func (w *Worker) curSeqForTest() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
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
		if want := wantMerged(seq, func(id int) bool { return id < 2 }); !reflect.DeepEqual(normMsgs(m), want) {
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
		if want := wantMerged(seq, func(id int) bool { return id >= 2 }); !reflect.DeepEqual(normMsgs(rep.merged[seq-1]), want) {
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
	if want := wantMerged(1, func(id int) bool { return id < 2 }); !reflect.DeepEqual(normMsgs(m), want) {
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
	if want := wantMerged(1, func(id int) bool { return true }); !reflect.DeepEqual(normMsgs(m), want) {
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
