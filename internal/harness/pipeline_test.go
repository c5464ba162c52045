package harness

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcdist/internal/baseline"
	"mpcdist/internal/core"
	"mpcdist/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pipelineCase is one Table 1 driver run pinned by TestPipelineGolden.
type pipelineCase struct {
	name string
	run  func() (core.Result, error)
}

// byteDrivers are the string drivers, each as a function of the inputs and
// the parameters. The fixed-guess regimes run at a guess chosen from n:
// the small regime at n/8, the large regime at its boundary n^{1-x/5}.
var byteDrivers = []struct {
	name string
	run  func(s, sbar []byte, p core.Params) (core.Result, error)
}{
	{"edit-mpc", core.EditMPC},
	{"edit-small", func(s, sbar []byte, p core.Params) (core.Result, error) {
		return core.EditSmallMPC(s, sbar, max(1, max(len(s), len(sbar))/8), p)
	}},
	{"edit-large", func(s, sbar []byte, p core.Params) (core.Result, error) {
		return core.EditLargeMPC(s, sbar, largeGuess(max(len(s), len(sbar)), p.X), p)
	}},
	{"hss", baseline.HSSEditMPC},
	{"lcs", baseline.LCSMPC},
}

// largeGuess is the smallest guess the large-distance regime accepts.
func largeGuess(n int, x float64) int {
	return int(math.Ceil(math.Pow(float64(n), 1-x/5)))
}

func pipelineCases() []pipelineCase {
	var cases []pipelineCase
	add := func(name string, run func() (core.Result, error)) {
		cases = append(cases, pipelineCase{name, run})
	}

	rng := rand.New(rand.NewSource(41))
	us, ubar, _ := workload.PlantedUlam(rng, 300, 30)
	add("ulam/planted", func() (core.Result, error) {
		return core.UlamMPC(us, ubar, core.Params{X: 0.3, Eps: 1, Seed: 3})
	})
	fs, fbar, _ := workload.PlantedUlam(rng, 200, 150)
	add("ulam/far", func() (core.Result, error) {
		return core.UlamMPC(fs, fbar, core.Params{X: 0.3, Eps: 0.5, Seed: 4})
	})
	// The wall-time benchmark's ulam-large shape: n = 2048, planted
	// distance round(n^0.6) = 98, x 0.3 and the default eps, so that ten
	// block machines sample their anchors and price thousands of windows.
	ls, lbar, _ := workload.PlantedUlam(rand.New(rand.NewSource(43)), 2048, 98)
	add("ulam/large", func() (core.Result, error) {
		return core.UlamMPC(ls, lbar, core.Params{X: 0.3, Seed: 1})
	})

	rng = rand.New(rand.NewSource(42))
	es := workload.RandomString(rng, 300, 4)
	ebar := workload.PlantedEdits(rng, es, 20, 4)
	add("edit-mpc/hybrid", func() (core.Result, error) {
		return core.EditMPC(es, ebar, core.Params{X: 0.25, Eps: 0.5, Seed: 1})
	})
	add("edit-small/planted", func() (core.Result, error) {
		return core.EditSmallMPC(es, ebar, 32, core.Params{X: 0.25, Eps: 0.5, Seed: 2})
	})
	add("hss/planted", func() (core.Result, error) {
		return baseline.HSSEditMPC(es, ebar, core.Params{X: 0.25, Eps: 0.5, Seed: 1})
	})
	add("lcs/planted", func() (core.Result, error) {
		return baseline.LCSMPC(es, ebar, core.Params{X: 0.25, Eps: 0.5, Seed: 1})
	})

	// Lemma 8's four rounds on random strings, which are far apart, so
	// every round of the graph phase has work. Over 4 letters the run
	// machines also request extensions, so Algorithm 7's machines run.
	for _, c := range []struct {
		n, sigma int
		rngSeed  int64
		seed     int64
	}{{200, 12, 207, 1}, {200, 12, 214, 2}, {100, 4, 704, 1}} {
		rng := rand.New(rand.NewSource(c.rngSeed))
		s := workload.RandomString(rng, c.n, c.sigma)
		sbar := workload.RandomString(rng, c.n, c.sigma)
		p := core.Params{X: 0.25, Eps: 1, Seed: c.seed}
		add(fmt.Sprintf("edit-large/random/n%d/sigma%d/seed%d", c.n, c.sigma, c.seed), func() (core.Result, error) {
			return core.EditLargeMPC(s, sbar, largeGuess(c.n, p.X), p)
		})
	}

	edges := []struct{ name, a, b string }{
		{"empty", "", ""},
		{"equal", "abcab", "abcab"},
		{"empty-s", "", "abc"},
		{"empty-sbar", "abc", ""},
		{"single", "a", "b"},
	}
	for _, d := range byteDrivers {
		for _, e := range edges {
			run, a, b := d.run, []byte(e.a), []byte(e.b)
			add(d.name+"/"+e.name, func() (core.Result, error) {
				return run(a, b, core.Params{X: 0.25, Seed: 1})
			})
		}
	}
	ulamEdges := []struct {
		name string
		a, b []int
	}{
		{"empty", nil, nil},
		{"equal", []int{3, 1, 2}, []int{3, 1, 2}},
		{"empty-s", nil, []int{1, 2, 3}},
		{"empty-sbar", []int{1, 2, 3}, nil},
		{"single", []int{1}, []int{2}},
	}
	for _, e := range ulamEdges {
		a, b := e.a, e.b
		add("ulam/"+e.name, func() (core.Result, error) {
			return core.UlamMPC(a, b, core.Params{X: 0.3, Seed: 1})
		})
	}
	return cases
}

// writeResult renders the deterministic part of one run: the answer, and
// the model counters of the whole run and of every round.
func writeResult(w *bytes.Buffer, res core.Result) {
	fmt.Fprintf(w, "value=%d guess=%d regime=%q guesses=%d\n",
		res.Value, res.Guess, res.Regime, len(res.GuessReports))
	if len(res.Chain) > 0 {
		fmt.Fprint(w, "chain")
		for _, t := range res.Chain {
			fmt.Fprintf(w, " %d:%d>%d:%d/%d", t.L, t.R, t.G, t.K, t.D)
		}
		fmt.Fprintln(w)
	}
	r := res.Report
	fmt.Fprintf(w, "report rounds=%d machines=%d words=%d ops=%d critical=%d comm=%d\n",
		r.NumRounds, r.MaxMachines, r.MaxWords, r.TotalOps, r.CriticalOps, r.CommWords)
	for _, rs := range r.Rounds {
		fmt.Fprintf(w, "round %s phase=%s machines=%d in=%d out=%d ops=%d maxops=%d comm=%d\n",
			rs.Name, rs.Phase, rs.Machines, rs.MaxInWords, rs.MaxOutWords,
			rs.TotalOps, rs.MaxMachineOps, rs.CommWords)
	}
}

// TestPipelineGolden pins every Table 1 driver bit for bit: value, guess,
// regime, chain, and each round's name, phase, machines, in/out words,
// ops and communication, on planted and far inputs and on edge inputs.
// It is the exact gate for refactors of internal/core and
// internal/baseline, the large regime's graph phase included (no bench
// case reaches it). Regenerate with
//
//	go test ./internal/harness -run TestPipelineGolden -update
//
// only when a change to the drivers' counters is intended.
func TestPipelineGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range pipelineCases() {
		fmt.Fprintf(&buf, "== %s\n", c.name)
		res, err := c.run()
		if err != nil {
			fmt.Fprintf(&buf, "error: %v\n", err)
			continue
		}
		writeResult(&buf, res)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "pipelines.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run TestPipelineGolden -update` to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	caseName, shown := "", 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.HasPrefix(w, "== ") {
			caseName = w
		}
		if g != w && shown < 20 {
			t.Errorf("%s:\n got  %s\n want %s", caseName, g, w)
			shown++
		}
	}
}
