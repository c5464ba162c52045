package mpc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpcdist/internal/fault"
	"mpcdist/internal/trace"
)

// routeRounds runs a deterministic two-round pipeline on c: round one
// scatters each input value to machine value%3, round two echoes what
// arrived back to machine 0. It exercises multi-machine execution and a
// shuffle whose delivery order matters.
func routeRounds(t *testing.T, c *Cluster) map[int][]Payload {
	t.Helper()
	in := map[int][]Payload{
		0: {Ints{1, 2, 3, 4, 5, 6}},
		1: {Ints{7, 8, 9, 10}},
		2: {Ints{11, 12}},
	}
	mid, err := c.Run("scatter", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {
		for _, p := range in {
			for _, v := range p.(Ints) {
				x.Send(v%3, Int(v))
				x.Ops(1)
			}
		}
	})
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	out, err := c.Run("gather", trace.PhaseGraph, mid, func(x *Ctx, in []Payload) {
		for _, p := range in {
			x.Send(0, p)
			x.Ops(1)
		}
	})
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	return out
}

// TestFaultCrashRecoveryBitIdentical replays crashed machines and checks
// the recovered run is bit-identical to the fault-free one: same outputs
// in the same order, same deterministic model counters.
func TestFaultCrashRecoveryBitIdentical(t *testing.T) {
	ref := NewCluster(Config{Seed: 9})
	want := routeRounds(t, ref)

	c := NewCluster(Config{
		Seed:   9,
		Faults: &fault.Plan{Seed: 3, Crash: 0.4, CrashAfter: 0.3, MaxRetries: 30},
	})
	got := routeRounds(t, c)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered outputs differ:\n got: %v\nwant: %v", got, want)
	}
	rep, refRep := c.Report(), ref.Report()
	if rep.Failures == 0 || rep.Retries == 0 {
		t.Fatalf("plan injected nothing (failures=%d retries=%d); the test is vacuous", rep.Failures, rep.Retries)
	}
	if rep.TotalOps != refRep.TotalOps || rep.CommWords != refRep.CommWords ||
		rep.MaxWords != refRep.MaxWords || rep.CriticalOps != refRep.CriticalOps {
		t.Errorf("deterministic counters drifted under faults:\n got: %+v\nwant: %+v", rep, refRep)
	}
}

// TestFaultCrashExhaustionTypedError checks retry-budget exhaustion surfaces
// a typed *fault.CrashError naming the round and machine, deterministically
// picking the lowest crashed machine id.
func TestFaultCrashExhaustionTypedError(t *testing.T) {
	c := NewCluster(Config{
		Seed:   9,
		Faults: &fault.Plan{Seed: 1, Crash: 1, MaxRetries: 2}, // every attempt crashes
	})
	in := map[int][]Payload{3: {Int(1)}, 5: {Int(2)}}
	_, err := c.Run("doomed", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {})
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CrashError, got %v", err)
	}
	if ce.Round != 0 || ce.Name != "doomed" || ce.Machine != 3 || ce.Attempts != 3 {
		t.Errorf("CrashError = %+v, want round 0 %q machine 3 attempts 3", ce, "doomed")
	}
	// The failed round is not appended to history, matching cancellation.
	if rep := c.Report(); rep.NumRounds != 0 {
		t.Errorf("failed round entered history: %+v", rep)
	}
}

// TestFaultCancellationMidReplayNoLeaks cancels a run whose machines are
// stuck in a straggle-crash replay loop and checks (a) Run returns within
// one retry of the cancellation rather than draining the retry budget, and
// (b) no machine goroutines are left behind.
func TestFaultCancellationMidReplayNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCluster(Config{
		Seed: 9,
		Ctx:  ctx,
		Faults: &fault.Plan{
			Seed: 2, CrashAfter: 1, // every attempt's output is lost -> replay
			Straggle: 1, Delay: 20 * time.Millisecond, // each replay sleeps
			MaxRetries: 1 << 20, // budget far exceeds what cancellation allows
		},
	})
	in := map[int][]Payload{0: {Int(1)}, 1: {Int(2)}}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Run("stuck", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Cancellation must cut the current attempt short: well under even a
	// handful of the budgeted 20ms replays.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled run took %v to return", d)
	}
	// Machine goroutines exit with Run (wg.Wait precedes the ctx check), so
	// the count should settle back to the baseline promptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultEventsReachObservers checks fault and retry events flow to
// observers and that the round summary's counters match the report.
func TestFaultEventsReachObservers(t *testing.T) {
	col := &recorder{}
	c := NewCluster(Config{
		Seed:     9,
		Observer: col,
		Faults:   &fault.Plan{Seed: 3, Crash: 0.4, CrashAfter: 0.6, MaxRetries: 30},
	})
	routeRounds(t, c)
	rep := c.Report()
	if rep.Failures == 0 {
		t.Fatal("plan injected nothing; the test is vacuous")
	}
	if len(col.faults) != rep.Failures {
		t.Errorf("collector saw %d fault events, report counted %d", len(col.faults), rep.Failures)
	}
	if len(col.retries) != rep.Retries {
		t.Errorf("collector saw %d retry events, report counted %d", len(col.retries), rep.Retries)
	}
	var sumF, sumR int
	for _, s := range col.summaries {
		sumF += s.Failures
		sumR += s.Retries
	}
	if sumF != rep.Failures || sumR != rep.Retries {
		t.Errorf("round summaries carry failures=%d retries=%d, report %d/%d", sumF, sumR, rep.Failures, rep.Retries)
	}
	for _, e := range col.faults {
		switch e.Kind {
		case trace.FaultCrashBefore, trace.FaultCrashAfter, trace.FaultStraggle:
		default:
			t.Errorf("unknown fault kind %q", e.Kind)
		}
	}
}

// TestFaultInactivePlanZeroDrift checks a nil and an all-zero plan both
// take the fault-free fast path: identical outputs and reports, zero
// fault counters.
func TestFaultInactivePlanZeroDrift(t *testing.T) {
	ref := NewCluster(Config{Seed: 9})
	want := routeRounds(t, ref)

	c := NewCluster(Config{Seed: 9, Faults: &fault.Plan{Seed: 77}}) // rates all zero
	got := routeRounds(t, c)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("inactive plan changed outputs:\n got: %v\nwant: %v", got, want)
	}
	rep := c.Report()
	if rep.Failures != 0 || rep.Retries != 0 {
		t.Errorf("inactive plan reported failures=%d retries=%d", rep.Failures, rep.Retries)
	}
}
