package harness

import (
	"os"
	"testing"

	"mpcdist/internal/dist"
)

// TestMain lets the test binary serve as its own worker processes for the
// tcp bench test below (see dist.MaybeWorkerMain).
func TestMain(m *testing.M) {
	dist.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestBenchTransportParity runs a reduced bench suite over both shuffle
// transports — the tcp side with telemetry shipping on — and requires
// CompareBench to find zero deterministic-counter drift between them: the
// bench-level form of the transport parity invariant, plus the telemetry
// plane's zero-interference invariant in the same comparison. Both sides
// must report wire traffic (local counts the logical codec encoding, tcp
// the real wire, so tcp is strictly larger).
func TestBenchTransportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, err := RunBench(BenchConfig{Sizes: []int{96}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := RunBench(BenchConfig{Sizes: []int{96}, Seed: 3, Transport: "tcp", Workers: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	diffs := CompareBench(local, tcp)
	for _, d := range diffs {
		t.Errorf("local vs tcp+telemetry drift: %s", d)
	}
	if !tcp.Telemetry {
		t.Error("tcp bench file does not record telemetry mode")
	}
	for i, r := range local.Results {
		if r.WireBytes == 0 {
			t.Errorf("%s: local run reports zero wire bytes", r.Name)
		}
		if tcp.Results[i].WireBytes <= r.WireBytes {
			t.Errorf("%s: tcp wire bytes %d not above local logical bytes %d",
				r.Name, tcp.Results[i].WireBytes, r.WireBytes)
		}
	}
}
