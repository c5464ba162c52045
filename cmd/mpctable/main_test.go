package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcdist/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// dropTiming cuts the elapsedMs and straggler cells, the two wall-clock
// columns and the last two of a harness.Columns table, off every line of
// each such table in out. A blank line ends a table.
func dropTiming(out string) string {
	lines := strings.Split(out, "\n")
	cut := -1
	for i, l := range lines {
		if c := strings.Index(l, "elapsedMs"); c >= 0 {
			cut = c
		}
		if l == "" {
			cut = -1
		}
		if cut >= 0 && len(l) > cut {
			lines[i] = l[:cut]
		}
	}
	return strings.Join(lines, "\n")
}

// TestViewsGolden pins the deterministic output of every view at -small
// sizes, the analytic table included (the edit view prints it), byte for
// byte: every model counter, fit, factor and budget verdict. Regenerate
// with
//
//	go test ./cmd/mpctable -run TestViewsGolden -update
//
// only when a change to a Table 1 number is intended.
func TestViewsGolden(t *testing.T) {
	base := core.Params{Eps: 0.5, Seed: 1}
	for _, v := range []struct {
		name string
		run  func(io.Writer, core.Params, bool) error
	}{
		{"table-ulam", runUlamTable},
		{"table-edit", runEditTable},
		{"sweep-machines", runMachineSweep},
		{"sweep-ulam", runUlamSweep},
		{"sweep-x", runXSweep},
		{"budget", runBudget},
	} {
		t.Run(v.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := v.run(&buf, base, true); err != nil {
				t.Fatal(err)
			}
			got := dropTiming(buf.String())
			golden := filepath.Join("testdata", v.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output changed:\n got:\n%s\nwant:\n%s", v.name, got, want)
			}
		})
	}
}
