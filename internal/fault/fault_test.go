package fault

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestFaultDecisionsDeterministic checks every decision is a pure function of
// its coordinates: repeated evaluation agrees, and equal plans agree.
func TestFaultDecisionsDeterministic(t *testing.T) {
	p := &Plan{Seed: 42, Crash: 0.3, CrashAfter: 0.3, Straggle: 0.3}
	q := &Plan{Seed: 42, Crash: 0.3, CrashAfter: 0.3, Straggle: 0.3}
	for round := 0; round < 4; round++ {
		for m := 0; m < 16; m++ {
			for a := 0; a < 3; a++ {
				if p.CrashBefore(round, m, a) != q.CrashBefore(round, m, a) ||
					p.CrashAfterExec(round, m, a) != q.CrashAfterExec(round, m, a) ||
					p.StraggleDelay(round, m, a) != q.StraggleDelay(round, m, a) {
					t.Fatalf("equal plans disagree at (%d,%d,%d)", round, m, a)
				}
			}
		}
	}
}

// TestFaultDecisionRates checks the Bernoulli decisions land near their rate
// over many coordinates, and that the per-kind streams are not identical.
func TestFaultDecisionRates(t *testing.T) {
	p := &Plan{Seed: 7, Crash: 0.25, CrashAfter: 0.25}
	const trials = 20000
	crashes, afters, agree := 0, 0, 0
	for i := 0; i < trials; i++ {
		c := p.CrashBefore(0, i, 0)
		a := p.CrashAfterExec(0, i, 0)
		if c {
			crashes++
		}
		if a {
			afters++
		}
		if c == a {
			agree++
		}
	}
	check := func(name string, got int) {
		frac := float64(got) / trials
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("%s rate %.3f, want ~0.25", name, frac)
		}
	}
	check("crash", crashes)
	check("crash-after", afters)
	// Independent 0.25-streams agree with prob 0.625; identical streams 1.0.
	if float64(agree)/trials > 0.7 {
		t.Errorf("crash and crash-after streams agree on %.3f of coordinates; kind salts not separating them",
			float64(agree)/trials)
	}
}

// TestFaultSeedChangesSchedule checks different seeds give different schedules.
func TestFaultSeedChangesSchedule(t *testing.T) {
	a := &Plan{Seed: 1, Crash: 0.5}
	b := &Plan{Seed: 2, Crash: 0.5}
	same := true
	for i := 0; i < 64 && same; i++ {
		if a.CrashBefore(0, i, 0) != b.CrashBefore(0, i, 0) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical 64-coordinate crash schedules")
	}
}

// TestFaultNilAndInactive checks nil-safety and the Active gate.
func TestFaultNilAndInactive(t *testing.T) {
	var p *Plan
	if p.Active() || p.CrashBefore(0, 0, 0) || p.CrashAfterExec(0, 0, 0) || p.StraggleDelay(0, 0, 0) != 0 {
		t.Error("nil plan injected something")
	}
	if p.String() != "fault.Plan(nil)" {
		t.Errorf("nil String() = %q", p.String())
	}
	zero := &Plan{Seed: 99}
	if zero.Active() {
		t.Error("all-zero rates reported Active")
	}
	if !(&Plan{Straggle: 0.1}).Active() {
		t.Error("nonzero straggle not Active")
	}
}

// TestFaultRateBounds checks the degenerate rates: 0 never fires, 1 always.
func TestFaultRateBounds(t *testing.T) {
	always := &Plan{Seed: 5, Crash: 1}
	never := &Plan{Seed: 5, Crash: 0}
	for i := 0; i < 32; i++ {
		if !always.CrashBefore(0, i, 0) {
			t.Fatalf("rate 1 did not fire at machine %d", i)
		}
		if never.CrashBefore(0, i, 0) {
			t.Fatalf("rate 0 fired at machine %d", i)
		}
	}
}

// TestFaultStraggleDelayDefault checks the 2ms default and the override.
func TestFaultStraggleDelayDefault(t *testing.T) {
	p := &Plan{Seed: 3, Straggle: 1}
	if d := p.StraggleDelay(0, 0, 0); d != 2*time.Millisecond {
		t.Errorf("default delay = %v, want 2ms", d)
	}
	p.Delay = 50 * time.Microsecond
	if d := p.StraggleDelay(0, 0, 0); d != 50*time.Microsecond {
		t.Errorf("override delay = %v, want 50µs", d)
	}
}

// TestFaultErrorsNameCoordinates checks the typed error renders its
// coordinates (tests depend on errors.As; operators on the text).
func TestFaultErrorsNameCoordinates(t *testing.T) {
	ce := &CrashError{Round: 2, Name: "chain", Machine: 7, Attempts: 4}
	for _, want := range []string{"machine 7", "round 2", `"chain"`, "4 attempts"} {
		if !strings.Contains(ce.Error(), want) {
			t.Errorf("CrashError %q missing %q", ce.Error(), want)
		}
	}
}

// TestFaultBindFlags checks the shared flag vocabulary parses into a Plan
// and a retry budget, and that all-zero rates yield nil (the fault-free
// fast path).
func TestFaultBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	flags := BindFlags(fs)
	if err := fs.Parse([]string{"-fault-seed", "11", "-fault-crash", "0.1", "-fault-delay", "5ms", "-max-retries", "7"}); err != nil {
		t.Fatal(err)
	}
	p, retries := flags()
	if p == nil || p.Seed != 11 || p.Crash != 0.1 || p.Delay != 5*time.Millisecond {
		t.Fatalf("parsed plan = %+v", p)
	}
	if retries != 7 {
		t.Fatalf("parsed retry budget = %d, want 7", retries)
	}

	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	flags2 := BindFlags(fs2)
	if err := fs2.Parse([]string{"-fault-seed", "11"}); err != nil {
		t.Fatal(err)
	}
	if p2, retries2 := flags2(); p2 != nil || retries2 != 0 {
		t.Fatalf("all-zero rates should yield nil plan and default budget, got %+v, %d", p2, retries2)
	}
}
