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

	"mpcdist/internal/trace"
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
		var ab assignBody
		if err := noTable.ReadValue(f.body, &ab); err != nil {
			t.Fatal(err)
		}
		out = append(out, ab.IDs)
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

// appendRecords encodes a records body with codec c.
func appendRecords(t *testing.T, c *Codec, seq int, meta RoundMeta, recs []Record) []byte {
	t.Helper()
	body, err := c.AppendValue(nil, recordsBody{Seq: seq, Meta: meta, Records: recs})
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
	if err := x.deliver(0, appendRecords(t, c.codec, 0, testMeta, recsFor([]int{1, 2}, 0))); err != nil {
		t.Fatal(err)
	}
	if !x.needBarrier[0] || len(x.owed[0]) != 2 || len(x.merged) != 1 {
		t.Fatalf("a re-sent earlier round was merged: owed %v, merged %v", x.owed, x.merged)
	}
	if err := x.deliver(0, appendRecords(t, c.codec, 1, testMeta, recsFor([]int{0, 1, 2}, 1))); err != nil {
		t.Fatal(err)
	}
	if !x.done() {
		t.Fatalf("not done after the worker delivered: owed %v", x.owed)
	}
	want := []Record{local,
		{Machine: 1, Ops: 101, Started: true},
		{Machine: 2, Ops: 102, Started: true}}
	if got := x.mergedRound(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged round = %+v, want %+v", got, want)
	}
	other := RoundMeta{Round: 0, Name: "other", Phase: "candidates"}
	var de *DivergenceError
	if err := x.deliver(0, appendRecords(t, c.codec, 1, other, nil)); !errors.As(err, &de) {
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
	post(c, 0, fResult, appendBody(jobBody{Seq: 1, Data: []byte("earlier job")}))
	post(c, 0, fRecords, appendRecords(t, c.codec, 1, testMeta, recsFor([]int{1}, 1)))
	// What a failed connection does: the slot is dead, then the loop wakes.
	c.state[1] = peerDead
	c.events <- peerEvent{w: 1, kind: evDeath}
	post(c, 0, fRecords, appendRecords(t, c.codec, 1, testMeta, recsFor([]int{2}, 1)))

	if err := c.await(x); err != nil {
		t.Fatal(err)
	}
	out := x.mergedRound()
	if err := c.broadcast(x.seq, testMeta, out); err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(1)[:3]; !reflect.DeepEqual(out, want) {
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
	post(c, 0, fResult, appendBody(jobBody{Seq: 1, Data: []byte("earlier job")}))
	post(c, 0, fResult, appendBody(jobBody{Seq: 2, Data: []byte("digest 1")}))
	post(c, 0, fResult, appendBody(jobBody{Seq: 2, Data: []byte("duplicate")}))
	c.events <- peerEvent{w: 1, kind: evRejoin}
	post(c, 1, fResult, appendBody(jobBody{Seq: 2, Data: []byte("digest 2")}))

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
	var jb jobBody
	if err := noTable.ReadValue(c.lastJob, &jb); err != nil || jb.Seq != 1 || string(jb.Data) != "job" {
		t.Errorf("stored job = (%d, %q, %v), want (1, \"job\", nil)", jb.Seq, jb.Data, err)
	}
}

// offlineWorker is party 1 of 3 with no dial, no reader goroutines and no
// rejoin grace: its writes go to a sinkConn, and the test feeds its inbox,
// so a closed inbox is the coordinator lost for good.
func offlineWorker() (*Worker, *sinkConn) {
	conn := &sinkConn{}
	p := newPeer(conn, 0, 0)
	p.inbox = make(chan frame, 16)
	return &Worker{codec: NewCodec(), parties: 3, self: 1, p: p}, conn
}

// feed queues frames on the worker's inbox.
func feed(w *Worker, fs ...frame) {
	for _, f := range fs {
		w.p.inbox <- f
	}
}

func mergedFrame(t *testing.T, w *Worker, seq int, meta RoundMeta, recs []Record) frame {
	t.Helper()
	return frame{typ: fMerged, body: appendRecords(t, w.codec, seq, meta, recs)}
}

// TestWorkerNextJob checks the wait between jobs: a merged round and an
// assign are stale resyncs of a finished exchange, and a job start the
// worker already took is a duplicate, so all three are skipped.
func TestWorkerNextJob(t *testing.T) {
	w, _ := offlineWorker()
	w.lastJobSeq = 1
	feed(w, mergedFrame(t, w, 3, testMeta, recsFor([]int{0}, 3)),
		frame{typ: fAssign, body: appendBody(assignBody{Seq: 3, IDs: []int{1}})},
		frame{typ: fJobStart, body: appendBody(jobBody{Seq: 1, Data: []byte("job 1")})},
		frame{typ: fJobStart, body: appendBody(jobBody{Seq: 2, Data: []byte("job 2")})})
	job, err := w.NextJob()
	if err != nil || string(job) != "job 2" {
		t.Fatalf("NextJob() = %q, %v; want \"job 2\"", job, err)
	}
	if w.lastJobSeq != 2 || len(w.p.inbox) != 0 {
		t.Errorf("lastJobSeq %d with %d frames unread, want 2 and none", w.lastJobSeq, len(w.p.inbox))
	}
}

// TestWorkerExchange checks the wait in a round: the records go out first,
// a job start and an older merged round are stale resyncs, and the
// merged round hands the party's own machines back as local records.
func TestWorkerExchange(t *testing.T) {
	w, conn := offlineWorker()
	w.seq = 1
	feed(w, frame{typ: fJobStart, body: appendBody(jobBody{Seq: 1, Data: []byte("job")})},
		mergedFrame(t, w, 1, testMeta, recsFor([]int{0, 1, 2, 3}, 1)),
		mergedFrame(t, w, 2, testMeta, recsFor([]int{0, 1, 2, 3}, 2)))
	out, err := w.Exchange(testMeta, nil, recsFor([]int{2, 3}, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(2); !reflect.DeepEqual(out, want) {
		t.Errorf("merged round = %+v, want %+v", out, want)
	}
	fs := conn.frames(t)
	if len(fs) != 1 || fs[0].typ != fRecords {
		t.Fatalf("worker wrote %v, want its records frame alone", fs)
	}
	if st := w.Stats(); st.Exchanges != 1 || w.lastAcked != 2 {
		t.Errorf("exchanges %d, last acked %d; want 1 and 2", st.Exchanges, w.lastAcked)
	}
}

// TestWorkerExchangeAssign checks a mid-round reassignment: a stale assign
// is skipped, the current one executes its ids and ships their records,
// and those machines come back from the merged round as local.
func TestWorkerExchangeAssign(t *testing.T) {
	w, conn := offlineWorker()
	w.seq = 1
	var ran [][]int
	exec := func(ids []int) ([]Record, error) {
		ran = append(ran, ids)
		return recsFor(ids, 2), nil
	}
	feed(w, frame{typ: fAssign, body: appendBody(assignBody{Seq: 1, IDs: []int{0}})},
		frame{typ: fAssign, body: appendBody(assignBody{Seq: 2, IDs: []int{1}})},
		mergedFrame(t, w, 2, testMeta, recsFor([]int{0, 1, 2, 3}, 2)))
	out, err := w.Exchange(testMeta, nil, recsFor([]int{2, 3}, 2), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, [][]int{{1}}) {
		t.Errorf("executed %v, want [[1]]", ran)
	}
	if want := wantMerged(2); !reflect.DeepEqual(out, want) {
		t.Errorf("merged round = %+v, want %+v", out, want)
	}
	var shipped [][]int
	for _, f := range conn.frames(t) {
		var rb recordsBody
		if err := w.codec.ReadValue(f.body, &rb); f.typ != fRecords || err != nil {
			t.Fatalf("worker wrote a %s frame (%v), want records", f.typ, err)
		}
		var ids []int
		for _, r := range rb.Records {
			ids = append(ids, r.Machine)
		}
		shipped = append(shipped, ids)
	}
	if !reflect.DeepEqual(shipped, [][]int{{2, 3}, {1}}) {
		t.Errorf("worker shipped records of %v, want [[2 3] [1]]", shipped)
	}
	if st := w.Stats(); st.Reassigns != 1 {
		t.Errorf("Reassigns = %d, want 1", st.Reassigns)
	}
}

// TestWorkerExchangeDiverged checks that a merged round of another round
// fails the exchange with a *DivergenceError, reported back to the
// coordinator in an fError frame.
func TestWorkerExchangeDiverged(t *testing.T) {
	w, conn := offlineWorker()
	other := RoundMeta{Round: 0, Name: "other", Phase: "candidates"}
	feed(w, mergedFrame(t, w, 1, other, nil))
	var de *DivergenceError
	if _, err := w.Exchange(testMeta, nil, nil, nil); !errors.As(err, &de) {
		t.Fatalf("Exchange() error = %v, want *DivergenceError", err)
	}
	fs := conn.frames(t)
	if last := fs[len(fs)-1]; last.typ != fError || !strings.Contains(string(last.body), "round metadata diverged") {
		t.Errorf("worker's last frame is %s %q, want the divergence as an error frame", last.typ, last.body)
	}
}

// TestWorkerWaitEnds checks how both waits end other than with their
// frame: shutdown, the coordinator's error, a frame neither wait expects,
// and a connection that closes with no rejoin grace to ride it out.
func TestWorkerWaitEnds(t *testing.T) {
	waits := map[string]func(w *Worker) error{
		"NextJob": func(w *Worker) error {
			_, err := w.NextJob()
			return err
		},
		"Exchange": func(w *Worker) error {
			_, err := w.Exchange(testMeta, nil, nil, nil)
			return err
		},
	}
	for _, tc := range []struct {
		name  string
		end   func(w *Worker)
		check func(err error) bool
	}{
		{"shutdown", func(w *Worker) { feed(w, frame{typ: fShutdown}) },
			func(err error) bool { return errors.Is(err, ErrShutdown) }},
		{"error frame", func(w *Worker) { feed(w, frame{typ: fError, body: []byte("boom")}) },
			func(err error) bool { return err != nil && err.Error() == "transport: coordinator: boom" }},
		{"unexpected frame", func(w *Worker) { feed(w, frame{typ: fHello}) },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "unexpected hello frame") }},
		{"closed inbox", func(w *Worker) {
			w.p.readErr = io.EOF
			close(w.p.inbox)
		}, func(err error) bool {
			var pl *PeerLossError
			return errors.As(err, &pl) && errors.Is(err, io.EOF)
		}},
	} {
		for name, wait := range waits {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				w, _ := offlineWorker()
				tc.end(w)
				if err := wait(w); !tc.check(err) {
					t.Errorf("%s() error = %v", name, err)
				}
			})
		}
	}
}

// TestTelemetryFlush follows one telemetry batch from worker to
// coordinator: the flushing worker adds its clock offset to every nonzero
// time and leaves zero times zero, and the coordinator logs the events
// under the party of the slot whose connection carried them, whatever
// party the events name.
func TestTelemetryFlush(t *testing.T) {
	w, conn := offlineWorker()
	w.telemetry, w.offsetNs = true, 5_000
	w.SetTelemetrySource(func() []trace.Event {
		return []trace.Event{
			{Kind: trace.KindSpan, Party: 7, Name: "r", StartNs: 100, EndNs: 250, QueueNs: 40},
			{Kind: trace.KindRound, Party: 7, Name: "r"}, // no machine ran: no times
			{Kind: trace.KindTransport, Party: 7, Detail: trace.TransportReconnect, StartNs: -300},
		}
	})
	w.flushTelemetry()
	fs := conn.frames(t)
	if len(fs) != 1 || fs[0].typ != fTelemetry {
		t.Fatalf("worker wrote %d frames, want one telemetry frame", len(fs))
	}
	var tb telemetryBody
	if err := noTable.ReadValue(fs[0].body, &tb); err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{Kind: trace.KindSpan, Party: 7, Name: "r", StartNs: 5_100, EndNs: 5_250, QueueNs: 40},
		{Kind: trace.KindRound, Party: 7, Name: "r"},
		{Kind: trace.KindTransport, Party: 7, Detail: trace.TransportReconnect, StartNs: 4_700},
	}
	if !reflect.DeepEqual(tb.Events, want) {
		t.Fatalf("shipped %+v\nwant %+v", tb.Events, want)
	}

	log := trace.Flight()
	defer log.Reset()
	log.Reset()
	log.Keep()
	c, _ := offlineCoordinator(peerUp, peerUp)
	if err := c.route(&results{}, 1, fs[0]); err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	for _, e := range log.Drain() {
		if e.Party != 0 { // the coordinator's own events are party 0
			got = append(got, e)
		}
	}
	for i := range want {
		want[i].Party = 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coordinator logged %+v\nwant %+v", got, want)
	}
}
