package netchaos

import (
	"bytes"
	"flag"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConn runs f against an armed chaos wrapper over an in-memory pipe
// and returns what the far end received.
func pipeConn(t *testing.T, p *Plan, arm bool, payloads [][]byte) [][]byte {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := New(p).Wrap(a)
	if arm {
		if ar, ok := w.(interface{ Arm() }); ok {
			ar.Arm()
		}
	}
	got := make(chan [][]byte, 1)
	go func() {
		var out [][]byte
		buf := make([]byte, 1<<10)
		b.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := b.Read(buf)
			if n > 0 {
				out = append(out, append([]byte(nil), buf[:n]...))
			}
			if err != nil {
				break
			}
		}
		got <- out
	}()
	for _, pl := range payloads {
		w.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if _, err := w.Write(pl); err != nil {
			break
		}
	}
	a.Close()
	return <-got
}

func TestInactivePlanIsIdentity(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Fatal("nil plan reports active")
	}
	if New(nil) != nil || New(&Plan{Seed: 7}) != nil {
		t.Fatal("inactive plan produced an injector")
	}
	a, _ := net.Pipe()
	defer a.Close()
	var inj *Injector
	if inj.Wrap(a) != a {
		t.Fatal("nil injector did not pass the conn through")
	}
}

func TestDisarmedWrapperIsPassthrough(t *testing.T) {
	// Drop rate 1: every armed write is truncated. Disarmed, all must pass
	// intact — this is what protects handshakes from the schedule.
	p := &Plan{Seed: 1, Drop: 1}
	in := [][]byte{[]byte("hello"), []byte("world")}
	got := pipeConn(t, p, false, in)
	if len(got) != 2 || !bytes.Equal(got[0], in[0]) || !bytes.Equal(got[1], in[1]) {
		t.Fatalf("disarmed wrapper altered traffic: %q", got)
	}
	armed := pipeConn(t, p, true, in)
	if len(armed) != 2 {
		t.Fatalf("armed drop plan delivered %d writes, want 2 truncated ones: %q", len(armed), armed)
	}
	for i, g := range armed {
		if len(g) >= len(in[i]) || !bytes.HasPrefix(in[i], g) {
			t.Fatalf("write %d: want a strict prefix of %q, got %q", i, in[i], g)
		}
	}
}

func TestCorruptFlipsExactlyOneBitDeterministically(t *testing.T) {
	p := &Plan{Seed: 42, Corrupt: 1}
	payload := bytes.Repeat([]byte{0xAA}, 64)
	first := pipeConn(t, p, true, [][]byte{payload})
	second := pipeConn(t, p, true, [][]byte{payload})
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("want 1 delivery each, got %d/%d", len(first), len(second))
	}
	if !bytes.Equal(first[0], second[0]) {
		t.Fatal("corruption is not deterministic across identical schedules")
	}
	diff := 0
	for i := range payload {
		if first[0][i] != payload[i] {
			diff++
			if x := first[0][i] ^ payload[i]; x&(x-1) != 0 {
				t.Fatalf("byte %d differs by more than one bit: %02x vs %02x", i, first[0][i], payload[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("want exactly 1 corrupted byte, got %d", diff)
	}
	// The caller's buffer must never be mutated (it may be a shared
	// encode buffer about to be retried on a fresh connection).
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("Write mutated the caller's buffer")
	}
}

func TestOutboundPartitionBlackholes(t *testing.T) {
	// Partition rate 1 guarantees the first conn is partitioned; sweep
	// seeds until the deterministic direction draw picks outbound.
	for seed := int64(1); seed < 64; seed++ {
		inj := New(&Plan{Seed: seed, Partition: 1})
		a, b := net.Pipe()
		w := inj.Wrap(a).(*conn)
		w.Arm()
		if w.partIn {
			a.Close()
			b.Close()
			continue
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.Write([]byte("into the void"))
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("blackholed write errored: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blackholed write blocked (should report success without delivering)")
		}
		a.Close()
		b.Close()
		return
	}
	t.Fatal("no seed in 1..63 produced an outbound partition")
}

func TestResetKillsConnAfterWrite(t *testing.T) {
	p := &Plan{Seed: 3, Reset: 1}
	a, b := net.Pipe()
	defer b.Close()
	w := New(p).Wrap(a)
	w.(interface{ Arm() }).Arm()
	go func() { // drain so the pipe write completes
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := w.Write([]byte("last words")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := w.Write([]byte("after the reset")); err == nil {
		t.Fatal("write after a scheduled reset succeeded")
	}
}

func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	get := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p := get(); p != nil {
		t.Fatalf("default flags produced an active plan: %s", p)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	get = BindFlags(fs)
	if err := fs.Parse([]string{"-netchaos-seed", "9", "-netchaos-corrupt", "0.25", "-netchaos-drop", "0.5"}); err != nil {
		t.Fatal(err)
	}
	p := get()
	if p == nil || p.Seed != 9 || p.Corrupt != 0.25 || p.Drop != 0.5 {
		t.Fatalf("plan = %s", p)
	}
	// The write delays are gone: their flags no longer parse.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs)
	if err := fs.Parse([]string{"-netchaos-latency", "1ms"}); err == nil {
		t.Fatal("-netchaos-latency parsed; want an unknown-flag error")
	}
}
