package mpc

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mpcdist/internal/fault"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// One test per step of Run, each calling the step on its own round.

// snapCheckpointer resumes every round from snap (nil: run live) and
// keeps the last snapshot saved, failing the save with err.
type snapCheckpointer struct {
	snap  *RoundSnapshot
	saved *RoundSnapshot
	err   error
}

func (c *snapCheckpointer) Resume(int, string, trace.Phase) (*RoundSnapshot, error) {
	return c.snap, nil
}

func (c *snapCheckpointer) Save(snap *RoundSnapshot) error {
	c.saved = snap
	return c.err
}

// TestRoundResume checks the resume step: a snapshot fast-forwards the
// round, entering its saved stats in the history verbatim, a round with no
// snapshot runs live, and a cancelled round stops first.
func TestRoundResume(t *testing.T) {
	in := map[int][]Payload{0: {Int(1)}}
	saved := &RoundSnapshot{Stats: RoundStats{Name: "r", Phase: trace.PhaseCandidates, Machines: 1, TotalOps: 42},
		Next: map[int][]Payload{3: {Int(9)}}}
	c := NewCluster(Config{Checkpointer: &snapCheckpointer{snap: saved}})
	snap, err := c.newRound("r", trace.PhaseCandidates, in, nil).resume()
	if err != nil || snap != saved {
		t.Fatalf("resume() = %v, %v; want the saved snapshot", snap, err)
	}
	if rep := c.Report(); rep.NumRounds != 1 || !reflect.DeepEqual(rep.Rounds[0], saved.Stats) {
		t.Errorf("history %+v, want the saved stats alone", rep.Rounds)
	}

	c = NewCluster(Config{Checkpointer: &snapCheckpointer{}})
	if snap, err := c.newRound("r", trace.PhaseCandidates, in, nil).resume(); snap != nil || err != nil {
		t.Errorf("resume() with nothing saved = %v, %v; want a live round", snap, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = NewCluster(Config{Ctx: ctx, Checkpointer: &snapCheckpointer{snap: saved}})
	if _, err := c.newRound("r", trace.PhaseCandidates, in, nil).resume(); !errors.Is(err, context.Canceled) {
		t.Errorf("resume() of a cancelled round = %v, want context.Canceled", err)
	}
}

// TestRoundAdmit checks the admit step: the machine-count and input caps,
// and the partition of the round across the transport's parties by input
// weight.
func TestRoundAdmit(t *testing.T) {
	in := map[int][]Payload{0: {Ints{1, 2, 3}}, 1: {Int(1)}, 2: {Int(2)}, 5: {Ints{1}}}
	ids, weights := []int{0, 1, 2, 5}, []int{4, 1, 1, 2}
	for _, tc := range []struct {
		cfg     Config
		kind    string
		machine int
	}{
		{Config{MaxMachines: 3}, "machines", 0},
		{Config{MachineWords: 3}, "input", 0},
	} {
		var me *MemoryError
		err := NewCluster(tc.cfg).newRound("r", trace.PhaseCandidates, in, nil).admit()
		if !errors.As(err, &me) || me.Kind != tc.kind || me.Machine != tc.machine {
			t.Errorf("admit() under %+v = %v, want a %s MemoryError for machine %d", tc.cfg, err, tc.kind, tc.machine)
		}
	}

	re := NewCluster(Config{}).newRound("r", trace.PhaseCandidates, in, nil)
	if err := re.admit(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.assign, [][]int{ids}) || !reflect.DeepEqual(re.mine, ids) || re.st.MaxInWords != 4 {
		t.Errorf("single party: assign %v, mine %v, MaxInWords %d", re.assign, re.mine, re.st.MaxInWords)
	}

	re = NewCluster(Config{Transport: fakePeer{&eventLog{peer: map[int][]int{}}}}).newRound("r", trace.PhaseCandidates, in, nil)
	if err := re.admit(); err != nil {
		t.Fatal(err)
	}
	if want := AssignMachines(ids, weights, 2); !reflect.DeepEqual(re.assign, want) || !reflect.DeepEqual(re.mine, want[0]) {
		t.Errorf("two parties: assign %v, mine %v; want %v and its first share", re.assign, re.mine, want)
	}
}

// lostPeer is a 2-party transport whose peer never answers: Exchange
// replays the peer's share through the ExecFunc, as the TCP coordinator
// does when no worker is left.
type lostPeer struct{}

func (lostPeer) Parties() (int, int) { return 2, 0 }

func (lostPeer) Exchange(_ transport.RoundMeta, assign [][]int, local []transport.Record, exec transport.ExecFunc) ([]transport.Record, error) {
	recs, err := exec(assign[1])
	if err != nil {
		return nil, err
	}
	merged := append(append([]transport.Record(nil), local...), recs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Machine < merged[j].Machine })
	return merged, nil
}

func (lostPeer) Stats() transport.Stats { return transport.Stats{} }
func (lostPeer) Close() error           { return nil }

// TestRoundExecute checks the execute step: this party runs only its own
// share before the exchange, and the exchange's replay of the rest yields
// the records a single party produces.
func TestRoundExecute(t *testing.T) {
	in := map[int][]Payload{}
	for id := 0; id < 6; id++ {
		in[id] = []Payload{Int(id)}
	}
	fn := func(x *Ctx, in []Payload) {
		x.Ops(int64(x.Rand().Intn(100)))
		x.Send(0, in[0])
	}
	records := func(cfg Config) ([]transport.Record, []int) {
		t.Helper()
		re := NewCluster(cfg).newRound("r", trace.PhaseCandidates, in, fn)
		if err := re.admit(); err != nil {
			t.Fatal(err)
		}
		merged, err := re.execute()
		if err != nil {
			t.Fatal(err)
		}
		for i := range merged {
			merged[i].StartNs, merged[i].EndNs, merged[i].QueueNs = 0, 0, 0
		}
		return merged, re.mine
	}
	want, _ := records(Config{Seed: 3})
	got, mine := records(Config{Seed: 3, Transport: lostPeer{}})
	if len(mine) == 0 || len(mine) == len(in) {
		t.Fatalf("this party's share %v; the test needs both parties busy", mine)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records with a replayed peer:\n got %+v\nwant %+v", got, want)
	}
}

// TestRoundAccount checks the account step on hand-made records: the
// fault counters are summed, the execution window and skew cover the
// machines that ran, and the lowest crashed machine fails the round.
func TestRoundAccount(t *testing.T) {
	re := NewCluster(Config{}).newRound("r", trace.PhaseCandidates, nil, nil)
	re.base = time.Unix(100, 0)
	err := re.account([]transport.Record{
		{Machine: 0, Started: true, StartNs: 10, EndNs: 50, QueueNs: 5, Failures: 1, Retries: 1},
		{Machine: 1, Started: true, StartNs: 20, EndNs: 90, QueueNs: 7},
		{Machine: 2, Failures: 2}, // crashed before every execution
	})
	if err != nil {
		t.Fatal(err)
	}
	st := re.st
	if st.Elapsed != 80 || st.QueueWait != 12 || st.Failures != 3 || st.Retries != 1 || st.Skew.Max != 70 {
		t.Errorf("stats %+v", st)
	}
	if !re.start.Equal(re.base.Add(10)) || !re.end.Equal(re.base.Add(90)) {
		t.Errorf("window %v..%v, want base+10ns..base+90ns", re.start, re.end)
	}

	re = NewCluster(Config{}).newRound("r", trace.PhaseCandidates, nil, nil)
	err = re.account([]transport.Record{
		{Machine: 3, Crashed: true, CrashAttempts: 2},
		{Machine: 4, Crashed: true, CrashAttempts: 2},
	})
	var ce *fault.CrashError
	if !errors.As(err, &ce) || ce.Machine != 3 || ce.Attempts != 2 {
		t.Errorf("account() with crashed machines = %v, want a CrashError for machine 3", err)
	}
}

// TestRoundShuffle checks the shuffle step: messages grouped by
// destination in record and emission order, the model counters, and the
// output cap, which fails the round with every machine still counted.
func TestRoundShuffle(t *testing.T) {
	re := NewCluster(Config{MachineWords: 3}).newRound("r", trace.PhaseCandidates, nil, nil)
	next, err := re.shuffle([]transport.Record{
		{Machine: 0, Ops: 5, Msgs: []transport.Msg{{To: 1, Data: Int(1)}, {To: 0, Data: Int(2)}}},
		{Machine: 1, Ops: 9, Msgs: []transport.Msg{{To: 1, Data: Int(3)}}},
		{Machine: 2, Ops: 1, Msgs: []transport.Msg{{To: 0, Data: Ints{1, 2, 3}}}},
	})
	var me *MemoryError
	if !errors.As(err, &me) || me.Kind != "output" || me.Machine != 2 {
		t.Errorf("shuffle() = %v, want an output MemoryError for machine 2", err)
	}
	want := map[int][]Payload{0: {Int(2), Ints{1, 2, 3}}, 1: {Int(1), Int(3)}}
	if !reflect.DeepEqual(next, want) {
		t.Errorf("next inputs %v, want %v", next, want)
	}
	st := re.st
	if st.TotalOps != 15 || st.MaxMachineOps != 9 || st.CommWords != 7 || st.MaxOutWords != 4 {
		t.Errorf("stats %+v", st)
	}
}

// TestRoundPersist checks the persist step: the round enters the history
// and reaches the checkpointer whole, and a failed save fails the job
// after the round closed.
func TestRoundPersist(t *testing.T) {
	next := map[int][]Payload{1: {Int(4)}}
	ck := &snapCheckpointer{}
	c := NewCluster(Config{Checkpointer: ck})
	re := c.newRound("r", trace.PhaseGraph, nil, nil)
	re.st.TotalOps = 7
	if err := re.persist(next); err != nil {
		t.Fatal(err)
	}
	want := &RoundSnapshot{Round: 0, Name: "r", Phase: trace.PhaseGraph, Stats: re.st, Next: next}
	if !reflect.DeepEqual(ck.saved, want) {
		t.Errorf("saved %+v, want %+v", ck.saved, want)
	}
	if rep := c.Report(); rep.NumRounds != 1 || rep.TotalOps != 7 {
		t.Errorf("history %+v, want the round", rep.Rounds)
	}

	ck.err = errors.New("disk full")
	if err := c.newRound("s", trace.PhaseGraph, nil, nil).persist(next); err == nil || !strings.Contains(err.Error(), "checkpoint save: disk full") {
		t.Errorf("persist() with a failing save = %v", err)
	}
}
