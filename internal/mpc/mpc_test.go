package mpc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcdist/internal/trace"
)

// recorder is an Observer that keeps the simulator's events verbatim, so
// tests can assert on the event stream.
type recorder struct {
	trace.Base
	mu        sync.Mutex
	starts    []trace.RoundInfo
	spans     []trace.MachineSpan
	faults    []trace.FaultEvent
	retries   []trace.RetryEvent
	summaries []trace.RoundSummary
}

func (r *recorder) RoundStart(e trace.RoundInfo) {
	r.mu.Lock()
	r.starts = append(r.starts, e)
	r.mu.Unlock()
}

func (r *recorder) MachineEnd(e trace.MachineSpan) {
	r.mu.Lock()
	r.spans = append(r.spans, e)
	r.mu.Unlock()
}

func (r *recorder) Fault(e trace.FaultEvent) {
	r.mu.Lock()
	r.faults = append(r.faults, e)
	r.mu.Unlock()
}

func (r *recorder) Retry(e trace.RetryEvent) {
	r.mu.Lock()
	r.retries = append(r.retries, e)
	r.mu.Unlock()
}

func (r *recorder) RoundEnd(e trace.RoundSummary) {
	r.mu.Lock()
	r.summaries = append(r.summaries, e)
	r.mu.Unlock()
}

func TestRunSingleRoundRouting(t *testing.T) {
	c := NewCluster(Config{MachineWords: 100})
	in := map[int][]Payload{
		0: {Ints{1, 2, 3}},
		1: {Ints{4, 5}},
	}
	out, err := c.Run("echo", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		for _, p := range in {
			for _, v := range p.(Ints) {
				x.Send(v%2, Int(v))
			}
		}
		x.Ops(int64(len(in)))
	})
	if err != nil {
		t.Fatal(err)
	}
	var evens, odds []int
	for _, p := range out[0] {
		evens = append(evens, int(p.(Int)))
	}
	for _, p := range out[1] {
		odds = append(odds, int(p.(Int)))
	}
	sort.Ints(evens)
	sort.Ints(odds)
	if len(evens) != 2 || evens[0] != 2 || evens[1] != 4 {
		t.Errorf("evens = %v", evens)
	}
	if len(odds) != 3 || odds[0] != 1 || odds[2] != 5 {
		t.Errorf("odds = %v", odds)
	}
	rep := c.Report()
	if rep.NumRounds != 1 || rep.MaxMachines != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.TotalOps != 2 {
		t.Errorf("total ops = %d, want 2", rep.TotalOps)
	}
}

func TestInputMemoryViolation(t *testing.T) {
	c := NewCluster(Config{MachineWords: 3})
	in := map[int][]Payload{0: {Ints{1, 2, 3}}} // 4 words > 3
	_, err := c.Run("r", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {})
	var me *MemoryError
	if !errors.As(err, &me) || me.Kind != "input" {
		t.Fatalf("want input MemoryError, got %v", err)
	}
}

func TestOutputMemoryViolation(t *testing.T) {
	c := NewCluster(Config{MachineWords: 4})
	in := map[int][]Payload{0: {Int(1)}}
	_, err := c.Run("r", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		x.Send(1, Ints{1, 2, 3, 4, 5})
	})
	var me *MemoryError
	if !errors.As(err, &me) || me.Kind != "output" {
		t.Fatalf("want output MemoryError, got %v", err)
	}
	// The failed round is not appended to history, matching crash
	// exhaustion and cancellation.
	if rep := c.Report(); rep.NumRounds != 0 {
		t.Errorf("failed round entered history: %+v", rep)
	}
}

func TestDeterministicRouting(t *testing.T) {
	run := func() []int {
		c := NewCluster(Config{Seed: 42, Parallelism: 4})
		in := map[int][]Payload{}
		for id := 0; id < 16; id++ {
			in[id] = []Payload{Int(id)}
		}
		out, err := c.Run("scatter", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
			r := x.Rand()
			for i := 0; i < 4; i++ {
				x.Send(0, Int(r.Intn(1000)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, p := range out[0] {
			got = append(got, int(p.(Int)))
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 64 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSharedRandCommonAcrossMachines(t *testing.T) {
	c := NewCluster(Config{Seed: 7})
	in := map[int][]Payload{0: {Int(0)}, 5: {Int(5)}, 9: {Int(9)}}
	out, err := c.Run("shared", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		x.Send(0, Int(x.SharedRand("L").Intn(1<<30)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 3 {
		t.Fatalf("want 3 messages, got %d", len(out[0]))
	}
	v0 := int(out[0][0].(Int))
	for _, p := range out[0][1:] {
		if int(p.(Int)) != v0 {
			t.Fatalf("shared rand differs across machines: %v", out[0])
		}
	}
	// Driver sees the same stream.
	if got := c.SharedRand(0, "L").Intn(1 << 30); got != v0 {
		t.Errorf("driver shared rand %d != machine %d", got, v0)
	}
	// A different tag gives a different stream (overwhelmingly likely).
	if got := c.SharedRand(0, "M").Intn(1 << 30); got == v0 {
		t.Errorf("tag M collided with tag L")
	}
}

func TestMultiRoundReport(t *testing.T) {
	c := NewCluster(Config{MachineWords: 1000})
	in := map[int][]Payload{0: {Ints{1, 2, 3, 4}}}
	mid, err := c.Run("one", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		x.Ops(10)
		for _, p := range in {
			for i, v := range p.(Ints) {
				x.Send(i, Int(v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run("two", trace.PhaseCandidates, mid, func(x *Ctx, in []Payload) { x.Ops(3) })
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.NumRounds != 2 {
		t.Fatalf("rounds = %d", rep.NumRounds)
	}
	if rep.MaxMachines != 4 {
		t.Errorf("machines = %d, want 4", rep.MaxMachines)
	}
	if rep.TotalOps != 10+3*4 {
		t.Errorf("total ops = %d, want 22", rep.TotalOps)
	}
	if rep.CriticalOps != 10+3 {
		t.Errorf("critical ops = %d, want 13", rep.CriticalOps)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	c.Reset()
	if c.Report().NumRounds != 0 {
		t.Error("Reset did not clear rounds")
	}
}

func TestPayloadWordsAndTypes(t *testing.T) {
	if (Ints{1, 2, 3}).Words() != 4 {
		t.Error("Ints.Words")
	}
	if (Bytes("abcdefgh")).Words() != 2 {
		t.Error("Bytes.Words full word")
	}
	if (Bytes("abcdefghi")).Words() != 3 {
		t.Error("Bytes.Words partial word")
	}
	if Int(9).Words() != 1 {
		t.Error("Int.Words")
	}
	if got := PayloadWords([]Payload{Int(1), Ints{1}, Bytes("x")}); got != 1+2+2 {
		t.Errorf("PayloadWords = %d", got)
	}
}

func TestBinPack(t *testing.T) {
	bins := BinPack([]int{3, 3, 3, 10, 1, 1}, 6)
	want := [][]int{{0, 1}, {2}, {3}, {4, 5}}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if len(bins[i]) != len(want[i]) {
			t.Fatalf("bin %d = %v, want %v", i, bins[i], want[i])
		}
		for j := range want[i] {
			if bins[i][j] != want[i][j] {
				t.Fatalf("bin %d = %v, want %v", i, bins[i], want[i])
			}
		}
	}
	if BinPack(nil, 5) != nil {
		t.Error("BinPack(nil) != nil")
	}
	// Zero capacity = one bin with everything.
	if got := BinPack([]int{1, 2}, 0); len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("BinPack cap=0 = %v", got)
	}
}

func TestCommWordsAccounting(t *testing.T) {
	c := NewCluster(Config{})
	in := map[int][]Payload{0: {Int(1)}, 1: {Int(2)}}
	_, err := c.Run("comm", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		x.Send(0, Ints{1, 2, 3}) // 4 words
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.CommWords != 8 {
		t.Errorf("CommWords = %d, want 8 (two machines x 4 words)", rep.CommWords)
	}
	if rep.Rounds[0].CommWords != 8 {
		t.Errorf("round CommWords = %d", rep.Rounds[0].CommWords)
	}
}

func TestParallelismEquivalence(t *testing.T) {
	// Simulation results must not depend on how many machines execute
	// concurrently.
	run := func(par int) (int64, []int) {
		c := NewCluster(Config{Seed: 5, Parallelism: par})
		in := map[int][]Payload{}
		for id := 0; id < 24; id++ {
			in[id] = []Payload{Int(id)}
		}
		out, err := c.Run("r", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
			r := x.Rand()
			x.Ops(int64(r.Intn(50)))
			x.Send(int(in[0].(Int))%3, Int(r.Intn(100)))
		})
		if err != nil {
			t.Fatal(err)
		}
		var vals []int
		for dst := 0; dst < 3; dst++ {
			for _, p := range out[dst] {
				vals = append(vals, int(p.(Int)))
			}
		}
		return c.Report().TotalOps, vals
	}
	ops1, v1 := run(1)
	ops8, v8 := run(8)
	if ops1 != ops8 {
		t.Errorf("ops differ across parallelism: %d vs %d", ops1, ops8)
	}
	if len(v1) != len(v8) {
		t.Fatalf("output counts differ")
	}
	for i := range v1 {
		if v1[i] != v8[i] {
			t.Fatalf("outputs differ at %d: %d vs %d", i, v1[i], v8[i])
		}
	}
}

func TestElapsedExcludesQueueWait(t *testing.T) {
	// Four machines sleeping ~4ms each on a single execution slot: the
	// later machines queue, so the summed QueueWait must clearly exceed
	// zero while each machine's span stays near its sleep time.
	c := NewCluster(Config{Parallelism: 1})
	in := map[int][]Payload{}
	for id := 0; id < 4; id++ {
		in[id] = []Payload{Int(id)}
	}
	_, err := c.Run("sleepy", trace.PhaseCandidates, in, func(x *Ctx, _ []Payload) {
		time.Sleep(4 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Report().Rounds[0]
	if st.Elapsed < 12*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 12ms (4 serialized 4ms machines)", st.Elapsed)
	}
	if st.QueueWait < 12*time.Millisecond {
		t.Errorf("QueueWait = %v, want >= 12ms (3 machines queued behind 4ms runs)", st.QueueWait)
	}
	if st.Skew.Max <= 0 || st.Skew.Mean <= 0 || st.Skew.Straggler < 1 {
		t.Errorf("skew not recorded: %+v", st.Skew)
	}
	rep := c.Report()
	if rep.Elapsed != st.Elapsed || rep.QueueWait != st.QueueWait {
		t.Errorf("report aggregates: elapsed %v/%v queueWait %v/%v",
			rep.Elapsed, st.Elapsed, rep.QueueWait, st.QueueWait)
	}
	if rep.MaxStraggler != st.Skew.Straggler {
		t.Errorf("MaxStraggler = %v, want %v", rep.MaxStraggler, st.Skew.Straggler)
	}
}

func TestObserverEventStream(t *testing.T) {
	col := &recorder{}
	c := NewCluster(Config{Observer: col, MachineWords: 100})
	in := map[int][]Payload{0: {Ints{1, 2, 3}}, 1: {Ints{4, 5}}}
	mid, err := c.Run("stage1", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		x.Ops(7)
		x.Send(0, Int(1))
		x.Send(1, Int(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("stage2", trace.PhaseCandidates, mid, func(x *Ctx, in []Payload) { x.Ops(1) }); err != nil {
		t.Fatal(err)
	}

	if len(col.starts) != 2 || col.starts[0].Name != "stage1" || col.starts[1].Round != 1 {
		t.Fatalf("round starts = %+v", col.starts)
	}
	if len(col.spans) != 4 {
		t.Fatalf("spans = %d, want 4 (2 machines x 2 rounds)", len(col.spans))
	}
	sends, outWords := 0, 0
	for _, s := range col.spans {
		sends += s.Sends
		outWords += s.OutWords
		if s.End.Before(s.Start) || s.Start.IsZero() {
			t.Errorf("span %d/%d has bad window %v..%v", s.Round, s.Machine, s.Start, s.End)
		}
		if s.Round == 0 && (s.Sends != 2 || s.Fanout != 2 || s.OutWords != 2 || s.Ops != 7) {
			t.Errorf("round-0 span %+v", s)
		}
	}
	if sends != 4 || outWords != 4 {
		t.Errorf("spans carry %d sends of %d words, want 4/4", sends, outWords)
	}
	if len(col.summaries) != 2 || col.summaries[0].Err != "" {
		t.Fatalf("summaries = %+v", col.summaries)
	}
	s0 := col.summaries[0]
	if s0.TotalOps != 14 || s0.CommWords != 4 || s0.Machines != 2 {
		t.Errorf("summary 0 = %+v", s0)
	}
	if s0.Start.IsZero() || s0.End.Before(s0.Start) {
		t.Errorf("summary window %v..%v", s0.Start, s0.End)
	}
}

func TestMemoryErrorsSurfaceThroughObserver(t *testing.T) {
	// Input violation: rejected pre-flight, observer still sees the round
	// open and close with the error.
	colIn := &recorder{}
	c := NewCluster(Config{MachineWords: 3, Observer: colIn})
	_, err := c.Run("in", trace.PhaseCandidates, map[int][]Payload{0: {Ints{1, 2, 3}}}, func(x *Ctx, in []Payload) {})
	var me *MemoryError
	if !errors.As(err, &me) || me.Kind != "input" {
		t.Fatalf("want input MemoryError, got %v", err)
	}
	if len(colIn.summaries) != 1 || !strings.Contains(colIn.summaries[0].Err, "input") {
		t.Fatalf("input violation not observed: %+v", colIn.summaries)
	}
	if len(colIn.spans) != 0 {
		t.Fatalf("no machine should have run, got %d spans", len(colIn.spans))
	}

	// Output violation: detected after execution; spans exist and the
	// closing summary carries the error.
	colOut := &recorder{}
	c = NewCluster(Config{MachineWords: 4, Observer: colOut})
	_, err = c.Run("out", trace.PhaseCandidates, map[int][]Payload{0: {Int(1)}}, func(x *Ctx, in []Payload) {
		x.Send(1, Ints{1, 2, 3, 4, 5})
	})
	if !errors.As(err, &me) || me.Kind != "output" {
		t.Fatalf("want output MemoryError, got %v", err)
	}
	if len(colOut.summaries) != 1 || !strings.Contains(colOut.summaries[0].Err, "output") {
		t.Fatalf("output violation not observed: %+v", colOut.summaries)
	}
	if len(colOut.spans) != 1 {
		t.Fatalf("machine ran, want its span observed: %d", len(colOut.spans))
	}
}

func TestStreamSeedDeterminismAndSpread(t *testing.T) {
	// Same coordinates, same seed; any coordinate change moves the seed.
	if streamSeed(1, 2, 3) != streamSeed(1, 2, 3) {
		t.Fatal("streamSeed not deterministic")
	}
	seen := map[int64]bool{}
	for round := 0; round < 10; round++ {
		for machine := 0; machine < 10; machine++ {
			s := streamSeed(42, round, machine)
			if seen[s] {
				t.Fatalf("stream seed collision at round=%d machine=%d", round, machine)
			}
			seen[s] = true
		}
	}
	if sharedSeed(42, 0, "L") == sharedSeed(42, 0, "M") {
		t.Error("shared seeds collide across tags")
	}
	if sharedSeed(42, 0, "L") == streamSeed(42, 0, 0) {
		t.Error("shared and machine stream kinds collide")
	}
	if sharedSeed(42, 0, "L") != sharedSeed(42, 0, "L") {
		t.Error("sharedSeed not deterministic")
	}
}

// oldStreamSeed is the pre-optimization derivation (fnv over an
// fmt-formatted key), kept here so the benchmark reports the delta.
func oldStreamSeed(seed int64, round, machine int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "machine|%d|%d|%d", seed, round, machine)
	return int64(h.Sum64())
}

func BenchmarkStreamSeedArithmetic(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += streamSeed(42, i&7, i&1023)
	}
	_ = sink
}

func BenchmarkStreamSeedFmtFNV(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += oldStreamSeed(42, i&7, i&1023)
	}
	_ = sink
}

// benchRun drives one round over many trivial machines, the regime where
// per-event observer overhead would show up.
func benchRun(b *testing.B, obs trace.Observer) {
	benchRunBody(b, obs, 0)
}

// benchRunBody is benchRun with `work` iterations of deterministic compute
// per machine. work = 0 is the trivial-machine stress shape (isolates
// per-event dispatch cost); the recorder pair uses a body sized like the
// smallest real machine loads (a few microseconds — every actual phase
// machine processes at least a block of n^{1-x} elements), because that is
// the regime the always-on overhead budget is stated for.
func benchRunBody(b *testing.B, obs trace.Observer, work int) {
	in := map[int][]Payload{}
	for id := 0; id < 256; id++ {
		in[id] = []Payload{Int(id)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Observer: obs})
		if _, err := c.Run("bench", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
			acc := uint64(int(in[0].(Int)))
			for j := 0; j < work; j++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			x.Ops(int64(1 + work))
			x.Send(0, Int(acc&1))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// setFlight pins the process-global flight recorder on or off for one
// benchmark, restoring the previous state after. The observer pair runs
// recorder-off so it still isolates Observer-dispatch cost; the recorder
// pair measures the recorder itself against the same no-observer baseline
// (EXPERIMENTS.md records the overhead, budgeted at <= 3%).
func setFlight(b *testing.B, on bool) {
	b.Helper()
	prev := trace.FlightEnabled()
	trace.SetFlightEnabled(on)
	if on {
		trace.Flight().Reset()
	}
	b.Cleanup(func() { trace.SetFlightEnabled(prev) })
}

func BenchmarkRunNoObserver(b *testing.B)  { setFlight(b, false); benchRun(b, nil) }
func BenchmarkRunNopObserver(b *testing.B) { setFlight(b, false); benchRun(b, trace.Base{}) }

// recorderBenchWork sizes the recorder pair's machine body (~5000 mul-add
// steps, single-digit microseconds): conservative against the smallest
// real rounds, which run full block computations per machine.
const recorderBenchWork = 5000

func BenchmarkRunNoRecorder(b *testing.B) {
	setFlight(b, false)
	benchRunBody(b, nil, recorderBenchWork)
}
func BenchmarkRunRecorder(b *testing.B) {
	setFlight(b, true)
	benchRunBody(b, nil, recorderBenchWork)
}

func BenchmarkCtxRand(b *testing.B) {
	c := NewCluster(Config{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := &Ctx{Machine: i & 1023, Round: i & 7, cluster: c}
		_ = x.Rand().Int63()
	}
}

func BenchmarkSharedRand(b *testing.B) {
	c := NewCluster(Config{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.SharedRand(i&7, "reps").Int63()
	}
}
