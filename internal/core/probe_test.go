package core

import (
	"math/rand"
	"testing"

	"mpcdist/internal/editdist"
	"mpcdist/internal/workload"
)

// TestExtensionRoundActive pins that the low-degree extension machinery
// (Algorithm 6 line 13 / Algorithm 7) actually runs: round 3 must carry
// extension work and ship tuples onward, and the result must stay within
// the factor.
func TestExtensionRoundActive(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	n := 400
	s := workload.RandomString(rng, n, 10)
	sbar := workload.RandomString(rng, n, 10)
	res, err := EditLargeMPC(s, sbar, 350, Params{X: 0.25, Eps: 1, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Report.Rounds))
	}
	ext := res.Report.Rounds[2]
	if ext.Name != "edit-large/extend" {
		t.Fatalf("round 3 = %q", ext.Name)
	}
	if ext.TotalOps == 0 || ext.CommWords == 0 {
		t.Errorf("extension round idle: ops=%d comm=%d", ext.TotalOps, ext.CommWords)
	}
	// The join round must have run the selectors and the sparse run
	// machines that request extensions (its machines outnumber the reps
	// round's chunks).
	if res.Report.Rounds[1].Machines <= res.Report.Rounds[0].Machines {
		t.Errorf("join round machines %d <= reps round %d",
			res.Report.Rounds[1].Machines, res.Report.Rounds[0].Machines)
	}
	exact := editdist.Distance(s, sbar, nil)
	if res.Value < exact || float64(res.Value) > 4*float64(exact) {
		t.Errorf("value %d vs exact %d outside bounds", res.Value, exact)
	}
}
