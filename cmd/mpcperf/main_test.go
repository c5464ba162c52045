package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpcdist/internal/dist"
)

// TestMain lets the edit-tcp-ckpt smoke run re-exec this test binary as its
// session worker.
func TestMain(m *testing.M) {
	dist.MaybeWorkerMain()
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmark(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	d := readBenchmark(t)
	if got, want := fmt.Sprint(d.EndToEnd), fmt.Sprint(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end = %s, binary reports %s", got, want)
	}
	if got, want := fmt.Sprint(d.PerLayer), fmt.Sprint(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer = %s, binary reports %s", got, want)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json workloads = %s, binary runs %s", got, want)
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// through the same functions a benchmark run uses.
func TestSmoke(t *testing.T) {
	d := readBenchmark(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				rep, err := measure(w, config{seed: 1, window: 300 * time.Millisecond, traced: traced, small: true, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%q", rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
				}
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s in %q, declared %q", m.Name, v.Unit, m.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must not be 0", m.Name, v.Value)
					}
				}
				if traced && w.observed {
					if len(rep.records) == 0 {
						t.Fatal("no traced op was recorded")
					}
					for i, o := range rep.records {
						if !o.conserved() {
							t.Errorf("op %d: layers %v do not partition wall %v", i, o.layers, o.wall)
						}
					}
				}
			})
		}
	}
}

// TestCheckerCountsWrongAnswers corrupts one oracle answer so the
// program's (correct) answer falls outside the proven factor, on the
// in-process, session and HTTP paths.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	cases := []struct {
		name    string
		inputs  func() inputs
		corrupt func(inputs)
	}{
		{"ulam-large, oracle too high", func() inputs { return prepareUlamLarge(1, true) },
			func(in inputs) { in.(*localJobs).pairs[0].exact += 5 }},
		{"edit-far, oracle too low", func() inputs { return prepareEditFar(1, true) },
			func(in inputs) { in.(*localJobs).pairs[0].exact /= 4 }},
		{"edit-tcp-ckpt", func() inputs { return prepareEditTCP(1, true) },
			func(in inputs) { in.(*tcpJobs).pairs[0].exact += 1000 }},
		{"serve-mix", func() inputs { return prepareServeMix(1, true) },
			func(in inputs) { in.(*serveMix).reqs[0].exact[0] += 1000 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.inputs()
			sys, err := in.start(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			if sys.op(0, nil).failed {
				t.Fatal("op 0 failed before the oracle was corrupted")
			}
			c.corrupt(in)
			if !sys.op(0, nil).failed {
				t.Error("a wrong answer was not counted as a failure")
			}
		})
	}
}

func TestProven(t *testing.T) {
	for _, c := range []struct {
		v, d   int
		factor float64
		want   bool
	}{
		{10, 10, 1.5, true}, {15, 10, 1.5, true}, {16, 10, 1.5, false},
		{9, 10, 1.5, false}, {0, 0, 3.5, true}, {1, 0, 3.5, false},
	} {
		if got := proven(c.v, c.d, c.factor); got != c.want {
			t.Errorf("proven(%d, %d, %v) = %v, want %v", c.v, c.d, c.factor, got, c.want)
		}
	}
}
