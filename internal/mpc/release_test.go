package mpc

import (
	"reflect"
	"strings"
	"testing"

	"mpcdist/internal/fault"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// releaseInputs returns eight machines' inputs and a copy of their
// contents.
func releaseInputs() (in, contents map[int][]Payload) {
	in, contents = map[int][]Payload{}, map[int][]Payload{}
	for id := 0; id < 8; id++ {
		in[id] = []Payload{Ints{id, id + 1}, Int(id)}
		contents[id] = append([]Payload(nil), in[id]...)
	}
	return in, contents
}

// echo sends a machine's input count and then its input to machine 0.
func echo(x *Ctx, in []Payload) {
	x.Send(0, Int(len(in)))
	for _, p := range in {
		x.Send(0, p)
	}
}

// TestReleaseCallerInputsUnchanged checks that Run, which drops its own
// references to the input slices as the round proceeds, never writes to
// the caller's map or slices: the same keys, backing arrays and payloads
// after the round, also when injected crashes replay machines and when the
// transport replays a lost peer's share.
func TestReleaseCallerInputsUnchanged(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 5},
		{Seed: 5, Faults: &fault.Plan{Seed: 2, Crash: 0.3, CrashAfter: 0.5, MaxRetries: 40}},
		{Seed: 5, Transport: lostPeer{}},
	} {
		in, contents := releaseInputs()
		heads := map[int]*Payload{}
		for id, pls := range in {
			heads[id] = &pls[0]
		}
		if _, err := NewCluster(cfg).Run("r", trace.PhaseCandidates, in, echo); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, contents) {
			t.Errorf("config %+v: inputs after Run %v, want %v", cfg, in, contents)
		}
		for id, pls := range in {
			if &pls[0] != heads[id] {
				t.Errorf("config %+v: machine %d's input slice was replaced", cfg, id)
			}
		}
	}
}

// TestReleaseCrashReplaySeesInput checks that a machine replayed after a
// crash that followed its execution still receives its whole input: the
// round drops an input only after the machine's last attempt.
func TestReleaseCrashReplaySeesInput(t *testing.T) {
	in, _ := releaseInputs()
	want, err := NewCluster(Config{Seed: 4}).Run("r", trace.PhaseCandidates, in, echo)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Seed: 4, Faults: &fault.Plan{Seed: 1, CrashAfter: 0.6, MaxRetries: 50}})
	got, err := c.Run("r", trace.PhaseCandidates, in, echo)
	if err != nil {
		t.Fatal(err)
	}
	if c.Report().Retries == 0 {
		t.Fatal("the plan replayed no machine; the test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outputs with crash-after-exec replays:\n got %v\nwant %v", got, want)
	}
}

// TestReleaseOwnShareOnly checks what the round drops and when: execute
// drops the input of every machine this party ran as its own share and
// keeps those the transport replayed for a lost peer, which a rejoining
// worker may be asked to run again; shuffle drops each outbox it copied.
func TestReleaseOwnShareOnly(t *testing.T) {
	in, _ := releaseInputs()
	re := NewCluster(Config{Seed: 4, Transport: lostPeer{}}).newRound("r", trace.PhaseCandidates, len(in), echo)
	if err := re.admit(in); err != nil {
		t.Fatal(err)
	}
	merged, err := re.execute()
	if err != nil {
		t.Fatal(err)
	}
	own := map[int]bool{}
	for _, id := range re.mine {
		own[id] = true
	}
	if len(own) == 0 || len(own) == len(in) {
		t.Fatalf("this party's share %v; the test needs both parties busy", re.mine)
	}
	for k, id := range re.ids {
		if released := re.in[k] == nil; released != own[id] {
			t.Errorf("machine %d (own share %v): input released %v", id, own[id], released)
		}
	}
	next, err := re.shuffle(merged)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range merged {
		if r.Msgs != nil {
			t.Errorf("machine %d's outbox kept after shuffle", r.Machine)
		}
	}
	if got, want := len(next[0]), 3*len(in); got != want || cap(next[0]) != want {
		t.Errorf("machine 0's next input has len %d cap %d, want both %d", got, cap(next[0]), want)
	}
}

// bogusPeer is a 2-party transport that asks this party to replay a
// machine outside the round, as a corrupt assign would.
type bogusPeer struct{ lostPeer }

func (bogusPeer) Exchange(_ transport.RoundMeta, _ [][]int, _ []transport.Record, exec transport.ExecFunc) ([]transport.Record, error) {
	return exec([]int{99})
}

// TestReplayRejectsUnknownMachine checks that a replay request for a
// machine the round does not have fails the round with an error naming
// it, instead of running the machine on no input.
func TestReplayRejectsUnknownMachine(t *testing.T) {
	in, _ := releaseInputs()
	_, err := NewCluster(Config{Transport: bogusPeer{}}).Run("r", trace.PhaseCandidates, in, echo)
	if err == nil || !strings.Contains(err.Error(), "no machine 99") {
		t.Errorf("Run with a replay of machine 99 = %v, want an error naming it", err)
	}
}
