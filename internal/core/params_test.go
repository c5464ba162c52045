package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mpcdist/internal/baseline"
	"mpcdist/internal/core"
)

// TestLadderKeepsGuesses checks Ladder against the plain geometric loop it
// replaced, wherever that loop finishes, and that a step past the int
// range ends the ladder at max instead of looping.
func TestLadderKeepsGuesses(t *testing.T) {
	plain := func(eps float64, max int) []int {
		if max < 1 {
			return []int{1}
		}
		var out []int
		for v := 1.0; ; v *= 1 + eps {
			iv := int(math.Ceil(v))
			if len(out) == 0 || iv > out[len(out)-1] {
				out = append(out, iv)
			}
			if iv >= max {
				return out
			}
		}
	}
	for _, eps := range []float64{0.01, 0.1, 0.25, 0.5, 1, 3, 100, 1e9, 1e18} {
		for _, max := range []int{-1, 0, 1, 2, 7, 100, 4096, 1 << 40} {
			if got, want := core.Ladder(eps, max), plain(eps, max); !reflect.DeepEqual(got, want) {
				t.Errorf("Ladder(%v, %d) = %v, want %v", eps, max, got, want)
			}
		}
	}
	for _, eps := range []float64{1e19, math.Inf(1), math.NaN()} {
		got := within(t, fmt.Sprintf("Ladder(%v, 10)", eps), func() []int { return core.Ladder(eps, 10) })
		if !reflect.DeepEqual(got, []int{1, 10}) {
			t.Errorf("Ladder(%v, 10) = %v, want [1 10]", eps, got)
		}
	}
	// (1e6+1)^4 leaves the int range after three in-range steps.
	got := within(t, "Ladder(1e6, MaxInt64)", func() []int { return core.Ladder(1e6, math.MaxInt64) })
	if len(got) != 5 || got[3] < 1e18 || got[4] != math.MaxInt64 {
		t.Errorf("Ladder(1e6, MaxInt64) = %v, want four in-range steps, then MaxInt64", got)
	}
}

// TestDriversRejectNonFiniteParams runs every MPC driver with the
// parameter values that once hung them: each returns, with an error for a
// NaN exponent and for a NaN or infinite slack. A huge finite slack may
// fail (the memory budget it implies can be too small for the run).
func TestDriversRejectNonFiniteParams(t *testing.T) {
	s, sbar := []byte("abcabcabcabcabcabcab"), []byte("abcabcXbcabcabcabYab")
	p, q := []int{5, 1, 2, 3, 4, 6, 7, 8}, []int{1, 2, 5, 3, 4, 8, 6, 7}
	drivers := map[string]func(core.Params) error{
		"UlamMPC":      func(pp core.Params) error { _, err := core.UlamMPC(p, q, pp); return err },
		"EditMPC":      func(pp core.Params) error { _, err := core.EditMPC(s, sbar, pp); return err },
		"EditSmallMPC": func(pp core.Params) error { _, err := core.EditSmallMPC(s, sbar, 4, pp); return err },
		"EditLargeMPC": func(pp core.Params) error { _, err := core.EditLargeMPC(s, sbar, len(s), pp); return err },
		"HSSEditMPC":   func(pp core.Params) error { _, err := baseline.HSSEditMPC(s, sbar, pp); return err },
		"LCSMPC":       func(pp core.Params) error { _, err := baseline.LCSMPC(s, sbar, pp); return err },
	}
	for name, run := range drivers {
		for _, pp := range []core.Params{{X: 0.25, Eps: math.NaN()}, {X: 0.25, Eps: math.Inf(1)}, {X: math.NaN(), Eps: 0.5}, {X: 0.25, Eps: 1e19}} {
			call := fmt.Sprintf("%s(x=%v, eps=%v)", name, pp.X, pp.Eps)
			// A huge finite slack is valid: the call must only return.
			if err := within(t, call, func() error { return run(pp) }); err == nil && pp.Eps != 1e19 {
				t.Errorf("%s returned no error", call)
			}
		}
	}
}

// within runs f on its own goroutine and fails the test unless f returns
// within 10s. A late f is left running: the values under test once made
// the code loop forever.
func within[T any](t *testing.T, call string, f func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- f() }()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", call)
		panic("unreachable")
	}
}
