package trace

import (
	"context"
	"runtime/pprof"
	"testing"
)

func TestPhaseLabels(t *testing.T) {
	ctx := pprof.WithLabels(context.Background(), PhaseLabels("ulam-mpc", PhaseChain, "ulam/solve"))
	got := map[string]string{}
	pprof.ForLabels(ctx, func(k, v string) bool {
		got[k] = v
		return true
	})
	want := map[string]string{"algo": "ulam-mpc", "phase": "chain", "round": "ulam/solve"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("label %s = %q, want %q", k, got[k], v)
		}
	}
	// Unknown pipeline: never an empty algo tag, which would render as a
	// blank row in pprof's tag views.
	ctx = pprof.WithLabels(context.Background(), PhaseLabels("", PhasePartition, "r"))
	algo, _ := pprof.Label(ctx, "algo")
	if algo != "unlabeled" {
		t.Errorf("empty-algo label = %q, want unlabeled", algo)
	}
}

// TestLabelPhaseRunsBody pins the control flow: the body runs exactly
// once. (That the labels actually land on profile samples is covered end
// to end by CI's mpcbench -cpuprofile check — goroutine labels are only
// observable through a profile.)
func TestLabelPhaseRunsBody(t *testing.T) {
	runs := 0
	LabelPhase("edit-mpc", PhasePartition, "edit/partition", func() { runs++ })
	if runs != 1 {
		t.Errorf("LabelPhase ran the body %d times, want 1", runs)
	}
}
