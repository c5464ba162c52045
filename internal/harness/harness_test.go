package harness

import (
	"strings"
	"testing"

	"mpcdist/internal/core"
	"mpcdist/internal/ulam"
)

func TestUlamRowCertifiesFactor(t *testing.T) {
	rows, err := Sweep([]*Spec{Ulam}, []int{300}, []float64{0.3}, func(int) int { return 30 },
		core.Params{Eps: 1, Seed: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0][0]
	if row.Factor < 1 || row.Factor > 2 {
		t.Errorf("factor %v out of [1,2]", row.Factor)
	}
	if row.Rounds != 2 {
		t.Errorf("rounds = %d", row.Rounds)
	}
	if len(row.Cells()) != len(Columns()) {
		t.Errorf("cells/columns mismatch: %d vs %d", len(row.Cells()), len(Columns()))
	}
}

func TestEditRowsComparable(t *testing.T) {
	rows, err := Sweep([]*Spec{Edit, HSS}, []int{500}, []float64{0.25}, func(int) int { return 20 },
		core.Params{Eps: 0.5, Seed: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ours, hss := rows[0][0], rows[1][0]
	if ours.Exact != hss.Exact || ours.Exact < 0 {
		t.Errorf("rows certify against different oracles: %d vs %d", ours.Exact, hss.Exact)
	}
	if ours.Value != hss.Value && (ours.Factor > 1.5 || hss.Factor > 1.5) {
		t.Errorf("rows diverge beyond factor bounds: %+v vs %+v", ours, hss)
	}
	if hss.Machines <= ours.Machines {
		t.Errorf("expected HSS to use more machines: %d vs %d", hss.Machines, ours.Machines)
	}
}

func TestSweepAndSlopes(t *testing.T) {
	rows, err := Sweep([]*Spec{Edit, HSS}, []int{300, 600}, []float64{0.25}, Edit.Planted,
		core.Params{Eps: 0.5, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 || len(rows[1]) != 2 {
		t.Fatalf("series shape wrong: %d specs", len(rows))
	}
	for i, r := range rows[0] {
		if r.Algo != Edit.Algo || rows[1][i].Algo != HSS.Algo || r.N != []int{300, 600}[i] || r.Exact != -1 {
			t.Errorf("point %d: %s n=%d exact=%d, then %s", i, r.Algo, r.N, r.Exact, rows[1][i].Algo)
		}
	}
	if om, hm := Fit(rows[0], Machines), Fit(rows[1], Machines); om <= 0 || hm <= 0 {
		t.Errorf("slopes not positive: %v %v", om, hm)
	}
}

// TestUlamScalingPoints checks that a fit sweep measures the asymptotic
// Ulam kernel and a certified one the default: below the quadratic DP's
// cutoff, the CDQ kernel does fewer operations. The cutoff is restored.
func TestUlamScalingPoints(t *testing.T) {
	p := core.Params{Eps: 1, Seed: 1}
	fit, err := Sweep([]*Spec{Ulam}, []int{256, 512}, []float64{0.3}, Ulam.Planted, p, false)
	if err != nil {
		t.Fatal(err)
	}
	pts := fit[0]
	if len(pts) != 2 || pts[1].TotalOps <= pts[0].TotalOps {
		t.Errorf("scaling points wrong: %+v", pts)
	}
	if ulam.QuadCutoff != 768 {
		t.Errorf("QuadCutoff = %d after the sweep, want 768", ulam.QuadCutoff)
	}
	certified, err := Sweep([]*Spec{Ulam}, []int{256}, []float64{0.3}, Ulam.Planted, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if c := certified[0][0]; c.Value != pts[0].Value || c.TotalOps <= pts[0].TotalOps {
		t.Errorf("certified row %d ops (value %d), fit row %d ops (value %d): want the same value at more ops",
			c.TotalOps, c.Value, pts[0].TotalOps, pts[0].Value)
	}
}

func TestAnalyticTable(t *testing.T) {
	out := Analytic(100000, 0.25).String()
	for _, want := range []string{"Ulam (Thm 4)", "Edit (Thm 9)", "Edit [20]", "Edit [11]", "n^0.45"} {
		if !strings.Contains(out, want) {
			t.Errorf("analytic table missing %q:\n%s", want, out)
		}
	}
}
