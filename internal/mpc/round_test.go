package mpc

import (
	"sort"
	"sync"
	"testing"

	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// eventLog records, in arrival order, the events of every round one test
// cluster runs: observer events, the transport's exchange, and the
// checkpointer's saves.
type eventLog struct {
	trace.Base
	mu     sync.Mutex
	events []loggedEvent
	peer   map[int][]int // round -> the machines the fake peer executed
}

type loggedEvent struct {
	round   int
	kind    string
	machine int
}

func (l *eventLog) add(round int, kind string, machine int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, loggedEvent{round, kind, machine})
}

func (l *eventLog) RoundStart(r trace.RoundInfo)       { l.add(r.Round, "RoundStart", -1) }
func (l *eventLog) MachineStart(round, machine, _ int) { l.add(round, "machine", machine) }
func (l *eventLog) MachineEnd(s trace.MachineSpan)     { l.add(s.Round, "machine", s.Machine) }
func (l *eventLog) RoundEnd(r trace.RoundSummary)      { l.add(r.Round, "RoundEnd", -1) }

func (l *eventLog) Checkpoint(e trace.CheckpointEvent) {
	if e.Kind == trace.CheckpointSave {
		l.add(e.Round, "CheckpointSave", -1)
	}
}

// fakePeer is a 2-party transport whose peer runs nothing: Exchange logs
// itself and fabricates the peer's records, each sending its machine id to
// machine 0.
type fakePeer struct{ log *eventLog }

func (p fakePeer) Parties() (int, int) { return 2, 0 }

func (p fakePeer) Exchange(meta transport.RoundMeta, assign [][]int, local []transport.Record, _ transport.ExecFunc) ([]transport.Record, error) {
	p.log.add(meta.Round, "exchange", -1)
	p.log.mu.Lock()
	p.log.peer[meta.Round] = assign[1]
	p.log.mu.Unlock()
	merged := append([]transport.Record(nil), local...)
	for _, id := range assign[1] {
		merged = append(merged, transport.Record{Machine: id, Ops: 1, Started: true, EndNs: 1000,
			Msgs: []transport.Msg{{To: 0, Data: Int(id)}}})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Machine < merged[j].Machine })
	return merged, nil
}

func (fakePeer) Stats() transport.Stats { return transport.Stats{} }
func (fakePeer) Close() error           { return nil }

// savingCheckpointer never resumes and logs every save.
type savingCheckpointer struct {
	log   *eventLog
	saves int
}

func (c *savingCheckpointer) Resume(int, string, trace.Phase) (*RoundSnapshot, error) {
	return nil, nil
}

func (c *savingCheckpointer) Save(snap *RoundSnapshot) error {
	snap.Step = c.saves
	c.saves++
	c.log.add(snap.Round, "save", -1)
	return nil
}

// TestRoundEventOrder pins the order of each round's events, which trace
// consumers such as a per-layer wall-time ledger split the round on:
// RoundStart, every local machine event, the exchange, the replayed remote
// machine events, RoundEnd, the checkpointer's save, and last the
// CheckpointSave event.
func TestRoundEventOrder(t *testing.T) {
	log := &eventLog{peer: map[int][]int{}}
	ck := &savingCheckpointer{log: log}
	c := NewCluster(Config{Seed: 1, Observer: log, Transport: fakePeer{log}, Checkpointer: ck})

	in := map[int][]Payload{0: {Int(0)}, 1: {Int(1)}, 2: {Int(2)}, 3: {Int(3)}}
	for round := 0; round < 2; round++ {
		out, err := c.Run("order", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
			x.Send(0, in[0])
			x.Send(1, in[0])
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRoundOrder(t, log, round, len(in))
		in = out
	}
	if ck.saves != 2 {
		t.Errorf("checkpointer saw %d saves, want 2", ck.saves)
	}
}

// checkRoundOrder asserts the order of the logged events of one round
// that ran the given number of machines.
func checkRoundOrder(t *testing.T, log *eventLog, round, machines int) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	remote := map[int]bool{}
	for _, id := range log.peer[round] {
		remote[id] = true
	}
	pos := map[string][]int{}
	for i, e := range log.events {
		if e.round != round {
			continue
		}
		kind := e.kind
		if kind == "machine" {
			kind = "local"
			if remote[e.machine] {
				kind = "remote"
			}
		}
		pos[kind] = append(pos[kind], i)
	}
	peer := len(log.peer[round])
	if peer == 0 || peer == machines {
		t.Fatalf("round %d: the peer ran %d of %d machines; the test needs both parties busy", round, peer, machines)
	}
	for kind, want := range map[string]int{"RoundStart": 1, "local": 2 * (machines - peer), "exchange": 1,
		"remote": 2 * peer, "RoundEnd": 1, "save": 1, "CheckpointSave": 1} {
		if len(pos[kind]) != want {
			t.Fatalf("round %d: %d %s events, want %d (log %v)", round, len(pos[kind]), kind, want, log.events)
		}
	}
	order := []string{"RoundStart", "local", "exchange", "remote", "RoundEnd", "save", "CheckpointSave"}
	for i := 1; i < len(order); i++ {
		prev, next := pos[order[i-1]], pos[order[i]]
		if prev[len(prev)-1] > next[0] {
			t.Errorf("round %d: a %s event follows a %s event (log %v)", round, order[i-1], order[i], log.events)
		}
	}
}

// replayingPeer is a 2-party transport whose peer loses the first machine
// of its share mid-round: Exchange replays that machine here through exec
// and fabricates the peer's records of the rest.
type replayingPeer struct{ assign [][]int }

func (p *replayingPeer) Parties() (int, int) { return 2, 0 }

func (p *replayingPeer) Exchange(_ transport.RoundMeta, assign [][]int, local []transport.Record, exec transport.ExecFunc) ([]transport.Record, error) {
	p.assign = assign
	merged, err := exec(assign[1][:1])
	if err != nil {
		return nil, err
	}
	merged = append(merged, local...)
	for _, id := range assign[1][1:] {
		merged = append(merged, transport.Record{Machine: id, Started: true, EndNs: 1000})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Machine < merged[j].Machine })
	return merged, nil
}

func (*replayingPeer) Stats() transport.Stats { return transport.Stats{} }
func (*replayingPeer) Close() error           { return nil }

// spanLog keeps every machine span.
type spanLog struct {
	trace.Base
	mu    sync.Mutex
	spans []trace.MachineSpan
}

func (l *spanLog) MachineEnd(s trace.MachineSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// TestReplayRemoteSkipsOwnMachines checks which spans a party replays for
// the observer: one MachineEnd per machine, local for this party's share
// and for the lost peer machine the transport had it replay, remote for
// the machines the peer ran.
func TestReplayRemoteSkipsOwnMachines(t *testing.T) {
	obs, tr := &spanLog{}, &replayingPeer{}
	c := NewCluster(Config{Seed: 1, Observer: obs, Transport: tr})
	in := map[int][]Payload{}
	for id := 0; id < 6; id++ {
		in[id] = []Payload{Int(id)}
	}
	if _, err := c.Run("replay", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) { x.Send(0, in[0]) }); err != nil {
		t.Fatal(err)
	}
	if len(tr.assign[0]) == 0 || len(tr.assign[1]) < 2 {
		t.Fatalf("assignment %v; the test needs both parties busy and a peer share of 2 or more", tr.assign)
	}
	ran := map[int]bool{tr.assign[1][0]: true}
	for _, id := range tr.assign[0] {
		ran[id] = true
	}
	remote := map[int]bool{}
	for _, s := range obs.spans {
		if _, dup := remote[s.Machine]; dup {
			t.Errorf("machine %d ended twice", s.Machine)
		}
		remote[s.Machine] = s.Remote
	}
	for id := range in {
		if got, ok := remote[id]; !ok || got == ran[id] {
			t.Errorf("machine %d: span seen %v, remote %v; want one span, remote %v", id, ok, got, !ran[id])
		}
	}
}
