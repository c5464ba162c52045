package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sinkConn stands in for a worker's connection: it keeps every byte the
// coordinator writes, and fails every write once broken.
type sinkConn struct {
	net.Conn
	mu     sync.Mutex
	buf    bytes.Buffer
	broken bool
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return 0, net.ErrClosed
	}
	return s.buf.Write(p)
}

func (s *sinkConn) Close() error { return nil }

// frames decodes every frame written so far.
func (s *sinkConn) frames(t *testing.T) []frame {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	br := bufio.NewReader(bytes.NewReader(s.buf.Bytes()))
	var out []frame
	for {
		f, err := readFrame(br)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// assigns decodes the machine ids of every fAssign frame written so far.
func (s *sinkConn) assigns(t *testing.T) [][]int {
	t.Helper()
	var out [][]int
	for _, f := range s.frames(t) {
		if f.typ != fAssign {
			continue
		}
		_, ids, err := decodeAssign(f.body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ids)
	}
	return out
}

// offlineCoordinator is a coordinator whose worker slots, in the given
// states, write into sinkConns: no listener, handshake, rejoin grace or
// reader goroutines. Tests drive its event loop by posting to c.events.
func offlineCoordinator(states ...peerState) (*Coordinator, []*sinkConn) {
	c := &Coordinator{
		codec:   NewCodec(),
		events:  make(chan peerEvent, 16),
		done:    make(chan struct{}),
		state:   states,
		gen:     make([]int, len(states)),
		retired: make([]slotCounters, len(states)),
	}
	conns := make([]*sinkConn, len(states))
	for w := range states {
		conns[w] = &sinkConn{}
		c.peers = append(c.peers, newPeer(conns[w], w+1, 0))
	}
	return c, conns
}

// post queues one frame from worker w on the coordinator's event loop.
func post(c *Coordinator, w int, typ frameType, body []byte) {
	c.events <- peerEvent{w: w, kind: evFrame, f: frame{typ: typ, body: body}}
}

func recordsBody(t *testing.T, c *Coordinator, seq int, meta RoundMeta, recs []Record) []byte {
	t.Helper()
	body, err := encodeRecords(c.codec, seq, meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var testMeta = RoundMeta{Round: 0, Name: "round", Phase: "candidates"}

// noReplay fails the test if the coordinator executes a machine itself.
func noReplay(t *testing.T) ExecFunc {
	return func(ids []int) ([]Record, error) {
		t.Errorf("coordinator replayed %v", ids)
		return recsFor(ids, 1), nil
	}
}

// TestOpenExchange checks where an exchange starts: the coordinator's own
// records are merged, and every worker, dead or alive, owes its records
// frame and the machines assigned to it.
func TestOpenExchange(t *testing.T) {
	c, _ := offlineCoordinator(peerUp, peerDead)
	c.seq = 4
	x := c.openExchange(testMeta, [][]int{{0}, {1, 2}, {3}}, recsFor([]int{0}, 5), nil)
	if x.seq != 5 || c.curSeq() != 5 {
		t.Errorf("exchange seq %d, session seq %d, want 5", x.seq, c.curSeq())
	}
	if !reflect.DeepEqual(x.merged, map[int]Record{0: recsFor([]int{0}, 5)[0]}) {
		t.Errorf("merged = %v, want the coordinator's own record", x.merged)
	}
	if want := []map[int]bool{{1: false, 2: false}, {3: false}}; !reflect.DeepEqual(x.owed, want) {
		t.Errorf("owed = %v, want %v", x.owed, want)
	}
	if !reflect.DeepEqual(x.needBarrier, []bool{true, true}) {
		t.Errorf("needBarrier = %v, want every worker's frame due", x.needBarrier)
	}
	if x.done() {
		t.Error("exchange done before any worker delivered")
	}
}

// TestExchangeDeliver checks the merge of a records frame: a re-sent
// earlier round is dropped, the first record of each machine wins, the
// frame settles what the worker owed, and another round is a divergence.
func TestExchangeDeliver(t *testing.T) {
	c, _ := offlineCoordinator(peerUp)
	local := Record{Machine: 0, Ops: 7, Started: true}
	x := c.openExchange(testMeta, [][]int{{0}, {1, 2}}, []Record{local}, nil)
	if err := x.deliver(0, recordsBody(t, c, 0, testMeta, recsFor([]int{1, 2}, 0))); err != nil {
		t.Fatal(err)
	}
	if !x.needBarrier[0] || len(x.owed[0]) != 2 || len(x.merged) != 1 {
		t.Fatalf("a re-sent earlier round was merged: owed %v, merged %v", x.owed, x.merged)
	}
	if err := x.deliver(0, recordsBody(t, c, 1, testMeta, recsFor([]int{0, 1, 2}, 1))); err != nil {
		t.Fatal(err)
	}
	if !x.done() {
		t.Fatalf("not done after the worker delivered: owed %v", x.owed)
	}
	want := []Record{local,
		{Machine: 1, Ops: 101, Started: true, Remote: true},
		{Machine: 2, Ops: 102, Started: true, Remote: true}}
	if got := normMsgs(x.mergedRound()); !reflect.DeepEqual(got, want) {
		t.Errorf("merged round = %+v, want %+v", got, want)
	}
	other := RoundMeta{Round: 0, Name: "other", Phase: "candidates"}
	var de *DivergenceError
	if err := x.deliver(0, recordsBody(t, c, 1, other, nil)); !errors.As(err, &de) {
		t.Errorf("records of another round: err = %v, want *DivergenceError", err)
	}
}

// TestExchangeLost checks where a dead worker's machines go: to the
// lowest-index live worker in one fAssign frame, past a worker whose write
// fails, into the parked set while the only other worker is suspect, and
// to the coordinator's own replay, in one batch, when nobody is left.
func TestExchangeLost(t *testing.T) {
	assign := [][]int{nil, {1, 2}, {3}, {4}}
	t.Run("first live worker", func(t *testing.T) {
		c, conns := offlineCoordinator(peerDead, peerUp, peerUp)
		x := c.openExchange(testMeta, assign, nil, noReplay(t))
		if err := x.lost([]int{0}); err != nil {
			t.Fatal(err)
		}
		if got := conns[1].assigns(t); !reflect.DeepEqual(got, [][]int{{1, 2}}) {
			t.Errorf("worker 1 was assigned %v, want [[1 2]]", got)
		}
		if want := map[int]bool{1: true, 2: true, 3: false}; !reflect.DeepEqual(x.owed[1], want) {
			t.Errorf("worker 1 owes %v, want %v", x.owed[1], want)
		}
		if x.needBarrier[0] || len(x.owed[0]) != 0 {
			t.Errorf("the dead worker still owes: frame %v, machines %v", x.needBarrier[0], x.owed[0])
		}
		if st := c.Stats(); st.Reassigns != 1 {
			t.Errorf("Reassigns = %d, want 1", st.Reassigns)
		}
	})
	t.Run("past a failed write", func(t *testing.T) {
		c, conns := offlineCoordinator(peerDead, peerUp, peerUp)
		conns[1].broken = true
		x := c.openExchange(testMeta, assign, nil, noReplay(t))
		if err := x.lost([]int{0}); err != nil {
			t.Fatal(err)
		}
		if got := conns[2].assigns(t); !reflect.DeepEqual(got, [][]int{{1, 2}}) {
			t.Errorf("worker 2 was assigned %v, want [[1 2]]", got)
		}
		if c.state[1] != peerDead || c.Stats().PeersLost != 1 {
			t.Fatalf("worker 1's failed write did not evict it: state %v, stats %+v", c.state[1], c.Stats())
		}
		// The evicted worker's own share follows once await hands it over.
		if err := x.lost([]int{1}); err != nil {
			t.Fatal(err)
		}
		if got := conns[2].assigns(t); !reflect.DeepEqual(got, [][]int{{1, 2}, {3}}) {
			t.Errorf("worker 2 was assigned %v, want [[1 2] [3]]", got)
		}
	})
	t.Run("parked while a worker is suspect", func(t *testing.T) {
		c, conns := offlineCoordinator(peerDead, peerSuspect)
		x := c.openExchange(testMeta, [][]int{nil, {1}, {2}}, nil, noReplay(t))
		if err := x.lost([]int{0}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x.pending, []int{1}) || x.done() {
			t.Fatalf("pending = %v, done = %v; want machine 1 parked", x.pending, x.done())
		}
		if got := conns[1].frames(t); len(got) != 0 {
			t.Errorf("a suspect was sent %d frames", len(got))
		}
	})
	t.Run("replayed with nobody left", func(t *testing.T) {
		c, _ := offlineCoordinator(peerDead, peerDead)
		var batches [][]int
		exec := func(ids []int) ([]Record, error) {
			batches = append(batches, append([]int(nil), ids...))
			return recsFor(ids, 1), nil
		}
		x := c.openExchange(testMeta, [][]int{{0}, {2, 1}, {3}}, recsFor([]int{0}, 1), exec)
		if err := x.lost([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batches, [][]int{{1, 2, 3}}) {
			t.Errorf("replayed batches %v, want one sorted batch [[1 2 3]]", batches)
		}
		if !x.done() {
			t.Error("not done after the replay")
		}
		if got := x.mergedRound(); !reflect.DeepEqual(got, recsFor([]int{0, 1, 2, 3}, 1)) {
			t.Errorf("merged round = %+v, want every machine as a local record", got)
		}
		if st := c.Stats(); st.Reassigns != 1 {
			t.Errorf("Reassigns = %d, want 1", st.Reassigns)
		}
	})
}

// TestExchangeRejoined checks that a worker resuming its slot is sent its
// reassignments once more — the frame may have died with the old
// connection — and that parked machines go to it.
func TestExchangeRejoined(t *testing.T) {
	c, conns := offlineCoordinator(peerDead, peerUp, peerSuspect)
	x := c.openExchange(testMeta, [][]int{nil, {1, 2}, {3}, {4}}, nil, noReplay(t))
	if err := x.lost([]int{0}); err != nil {
		t.Fatal(err)
	}
	x.pending = []int{4}
	if err := x.rejoined(1); err != nil {
		t.Fatal(err)
	}
	if got := conns[1].assigns(t); !reflect.DeepEqual(got, [][]int{{1, 2}, {1, 2}, {4}}) {
		t.Errorf("worker 1 was assigned %v, want [[1 2] [1 2] [4]]", got)
	}
	if st := c.Stats(); st.Reassigns != 2 {
		t.Errorf("Reassigns = %d, want 2: a re-sent frame is not a new reassignment", st.Reassigns)
	}
}

// TestExchangeAwait drives an exchange through the shared event loop and
// the broadcast. Worker 1 dies after the exchange opened, and its death
// event is queued behind worker 0's records: the exchange must still move
// worker 1's share to worker 0 and wait for it, instead of closing on the
// records it has. Stale traffic and malformed telemetry are dropped, and
// the merged round goes to the live worker alone.
func TestExchangeAwait(t *testing.T) {
	c, conns := offlineCoordinator(peerUp, peerUp)
	x := c.openExchange(testMeta, [][]int{{0}, {1}, {2}}, recsFor([]int{0}, 1), noReplay(t))
	post(c, 0, fTelemetry, []byte{0xff})
	post(c, 0, fResult, encodeResult(1, []byte("earlier job")))
	post(c, 0, fRecords, recordsBody(t, c, 1, testMeta, recsFor([]int{1}, 1)))
	// What a failed connection does: the slot is dead, then the loop wakes.
	c.state[1] = peerDead
	c.events <- peerEvent{w: 1, kind: evDeath}
	post(c, 0, fRecords, recordsBody(t, c, 1, testMeta, recsFor([]int{2}, 1)))

	if err := c.await(x); err != nil {
		t.Fatal(err)
	}
	out := x.mergedRound()
	if err := c.broadcast(x.seq, testMeta, out); err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(1, func(id int) bool { return id == 0 })[:3]; !reflect.DeepEqual(normMsgs(out), want) {
		t.Errorf("merged round = %+v, want %+v", out, want)
	}
	if got := conns[0].assigns(t); !reflect.DeepEqual(got, [][]int{{2}}) {
		t.Errorf("worker 0 was assigned %v, want [[2]]", got)
	}
	fs := conns[0].frames(t)
	if last := fs[len(fs)-1]; last.typ != fMerged {
		t.Errorf("worker 0's last frame is %s, want the merged round", last.typ)
	}
	if got := conns[1].frames(t); len(got) != 0 {
		t.Errorf("the dead worker was sent %d frames", len(got))
	}
	if st := c.Stats(); st.Exchanges != 1 || st.Reassigns != 1 || c.lastMergedSeq != 1 {
		t.Errorf("stats %+v, last merged seq %d; want 1 exchange, 1 reassignment, seq 1", st, c.lastMergedSeq)
	}
	if len(c.events) != 0 {
		t.Errorf("%d events left unread", len(c.events))
	}
}

// TestResultsAwait drives a job's result gathering through the shared
// event loop: stale records, telemetry, an earlier job's result and a
// duplicate are dropped, a suspect is waited for until it rejoins and
// re-sends, and a dead worker's slot stays nil.
func TestResultsAwait(t *testing.T) {
	c, _ := offlineCoordinator(peerUp, peerSuspect, peerDead)
	c.jobSeq, c.jobAct = 2, true
	post(c, 0, fRecords, nil)
	post(c, 0, fTelemetry, []byte{0xff})
	post(c, 0, fResult, encodeResult(1, []byte("earlier job")))
	post(c, 0, fResult, encodeResult(2, []byte("digest 1")))
	post(c, 0, fResult, encodeResult(2, []byte("duplicate")))
	c.events <- peerEvent{w: 1, kind: evRejoin}
	post(c, 1, fResult, encodeResult(2, []byte("digest 2")))

	out, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{[]byte("digest 1"), []byte("digest 2"), nil}; !reflect.DeepEqual(out, want) {
		t.Errorf("results = %q, want %q", out, want)
	}
	if c.jobAct {
		t.Error("the job is still active after its results")
	}
	if len(c.events) != 0 {
		t.Errorf("%d events left unread", len(c.events))
	}
}

// TestAwaitErrors checks how a barrier fails: on a worker's error frame, a
// frame it does not expect, a malformed frame, and a closed coordinator.
func TestAwaitErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		post func(c *Coordinator)
		want string
	}{
		{"error frame", func(c *Coordinator) { post(c, 0, fError, []byte("boom")) }, "transport: worker 1: boom"},
		{"unexpected frame", func(c *Coordinator) { post(c, 0, fHello, nil) }, "unexpected hello frame from worker 1 awaiting result"},
		{"malformed result", func(c *Coordinator) { post(c, 0, fResult, nil) }, "transport: worker 1 result"},
		{"closed", func(c *Coordinator) { close(c.done) }, "transport: coordinator closed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := offlineCoordinator(peerUp)
			tc.post(c)
			if _, err := c.Results(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Results() error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestStartJobSendAll checks the broadcast shared by job starts and merged
// rounds: live workers get the frame, a suspect does not (the rejoin
// resync catches it up from the stored job), and a failed write evicts.
func TestStartJobSendAll(t *testing.T) {
	c, conns := offlineCoordinator(peerUp, peerSuspect, peerUp)
	conns[2].broken = true
	if err := c.StartJob([]byte("job")); err != nil {
		t.Fatal(err)
	}
	fs := conns[0].frames(t)
	if len(fs) != 1 || fs[0].typ != fJobStart || !bytes.Equal(fs[0].body, c.lastJob) {
		t.Errorf("worker 0 got %v, want the stored job start", fs)
	}
	if got := conns[1].frames(t); len(got) != 0 {
		t.Errorf("the suspect was sent %d frames", len(got))
	}
	if c.state[2] != peerDead {
		t.Errorf("worker 2's failed write left it %v, want dead", c.state[2])
	}
	if jseq, job, err := decodeJobStart(c.lastJob); err != nil || jseq != 1 || string(job) != "job" {
		t.Errorf("stored job = (%d, %q, %v), want (1, \"job\", nil)", jseq, job, err)
	}
}
