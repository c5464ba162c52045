package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"

	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runWorkload drives a small deterministic two-round simulation into a
// log: Parallelism 1 serializes machine execution so the event stream is
// the same on every run.
func runWorkload(t *testing.T, l *trace.Log) {
	t.Helper()
	c := mpc.NewCluster(mpc.Config{Seed: 7, Parallelism: 1, MachineWords: 100, Observer: l})
	in := map[int][]mpc.Payload{
		0: {mpc.Ints{1, 2, 3}},
		1: {mpc.Ints{4, 5}},
		2: {mpc.Ints{6}},
	}
	mid, err := c.Run("scatter", trace.PhaseCandidates, in, func(x *mpc.Ctx, in []mpc.Payload) {
		x.Ops(int64(10 * (x.Machine + 1)))
		for _, p := range in {
			for _, v := range p.(mpc.Ints) {
				x.Send(v%2, mpc.Int(v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("gather", trace.PhaseCandidates, mid, func(x *mpc.Ctx, in []mpc.Payload) {
		x.Ops(int64(mpc.PayloadWords(in)))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestChromeStructure checks a local run's trace: the one renderer draws
// it as a cluster of one party, with a rounds track and one track per
// machine, and every arg of both old formats.
func TestChromeStructure(t *testing.T) {
	l := trace.NewLog()
	runWorkload(t, l)
	raw, err := l.Trace().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}

	// One complete-event span per (round, machine): round 0 has machines
	// 0..2, round 1 has machines 0..1 (v%2 destinations), plus one span
	// per round on the rounds track (tid 0).
	spansPerTid := map[int]int{}
	roundSpans := 0
	threadNames := map[int]string{}
	procNames := map[int]string{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Tid == 0 {
				roundSpans++
				for _, k := range []string{"machines", "commWords", "totalOps", "queueWaitUs", "straggler", "party"} {
					if ev.Args[k] == nil {
						t.Errorf("round span %q missing arg %q: %+v", ev.Name, k, ev.Args)
					}
				}
			} else {
				spansPerTid[ev.Tid]++
				for _, k := range []string{"ops", "round", "queueWaitUs", "party"} {
					if ev.Args[k] == nil {
						t.Errorf("machine span %q missing arg %q: %+v", ev.Name, k, ev.Args)
					}
				}
			}
		case "M":
			switch ev.Name {
			case "thread_name":
				threadNames[ev.Tid], _ = ev.Args["name"].(string)
			case "process_name":
				procNames[ev.Pid], _ = ev.Args["name"].(string)
			}
		}
	}
	if roundSpans != 2 {
		t.Errorf("round spans = %d, want 2", roundSpans)
	}
	// Machine 0 and 1 ran in both rounds (tids 1, 2); machine 2 only in
	// round 0 (tid 3).
	if spansPerTid[1] != 2 || spansPerTid[2] != 2 || spansPerTid[3] != 1 {
		t.Errorf("machine spans per tid = %v", spansPerTid)
	}
	if threadNames[0] != "rounds" || threadNames[1] != "machine 0" || threadNames[3] != "machine 2" {
		t.Errorf("thread names = %v", threadNames)
	}
	if len(procNames) != 1 || procNames[0] != "coordinator (party 0)" {
		t.Errorf("process lanes = %v, want one party", procNames)
	}
}

func TestChromeFailedRoundVisible(t *testing.T) {
	l := trace.NewLog()
	c := mpc.NewCluster(mpc.Config{MachineWords: 2, Observer: l})
	_, err := c.Run("boom", trace.PhaseCandidates, map[int][]mpc.Payload{0: {mpc.Ints{1, 2, 3}}}, func(x *mpc.Ctx, in []mpc.Payload) {})
	if err == nil {
		t.Fatal("want memory violation")
	}
	raw, jerr := l.Trace().JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !bytes.Contains(raw, []byte(`"error"`)) || !bytes.Contains(raw, []byte("input")) {
		t.Errorf("failed round not visible in trace: %s", raw)
	}
}
