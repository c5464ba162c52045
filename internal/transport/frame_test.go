package transport

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestFrameRoundTrip drives appendFrame through readFrame for every frame
// type, including empty bodies and back-to-back frames on one stream.
func TestFrameRoundTrip(t *testing.T) {
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	bodies := [][]byte{nil, {}, {0}, []byte("records"), big}
	types := []frameType{fHello, fWelcome, fJobStart, fResult, fShutdown,
		fRecords, fAssign, fMerged, fPing, fError, fTelemetry, fPong}

	var wire []byte
	var want []frame
	for i, typ := range types {
		body := bodies[i%len(bodies)]
		wire = appendFrame(wire, typ, body)
		want = append(want, frame{typ: typ, body: body})
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	for i, w := range want {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, w.typ, err)
		}
		if got.typ != w.typ || !bytes.Equal(got.body, w.body) {
			t.Fatalf("frame %d: got (%s, %d bytes), want (%s, %d bytes)",
				i, got.typ, len(got.body), w.typ, len(w.body))
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestReadFrameRejectsOversizedLength checks the pre-allocation guard: an
// announced length beyond maxFrame is a typed corrupt-frame error, not an
// attempted gigabyte allocation.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	hdr := []byte{byte(fRecords), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)))
	var c *CorruptFrameError
	if !errors.As(err, &c) {
		t.Fatalf("err = %v, want *CorruptFrameError", err)
	}
}

// FuzzFrameCorruption is the ISSUE's wire-integrity target: build a valid
// frame, flip arbitrary bytes anywhere in it — header, body, or trailer —
// and require that readFrame never hands back a frame that differs from
// what was sent. Every mutation must surface as a CRC/length error or a
// truncated read; a silent wrong payload is the one unacceptable outcome.
func FuzzFrameCorruption(f *testing.F) {
	f.Add(0, byte(1), []byte("the quick brown fox"))
	f.Add(2, byte(0x80), []byte{})
	f.Add(5, byte(0xFF), bytes.Repeat([]byte{0xAA}, 300))
	f.Add(-3, byte(4), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, pos int, xor byte, body []byte) {
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		wire := appendFrame(nil, fRecords, body)
		if xor == 0 {
			return // identity mutation
		}
		pos = ((pos % len(wire)) + len(wire)) % len(wire)
		mut := append([]byte(nil), wire...)
		mut[pos] ^= xor

		got, err := readFrame(bufio.NewReader(bytes.NewReader(mut)))
		if err == nil {
			if got.typ != fRecords || !bytes.Equal(got.body, body) {
				t.Fatalf("flip at %d (^%#02x) produced a DIFFERENT valid frame: type %s, %d bytes",
					pos, xor, got.typ, len(got.body))
			}
			return
		}
		var c *CorruptFrameError
		if !errors.As(err, &c) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("flip at %d (^%#02x): unexpected error class %T: %v", pos, xor, err, err)
		}
	})
}

// TestHelloRoundTrip covers both handshake shapes: the two-field fresh
// hello and the full v3 resume hello with token, party, and ack state.
func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []hello{
		{Version: ProtocolVersion},
		{Version: ProtocolVersion, NeedJob: true},
		{Version: ProtocolVersion, Resume: true, Token: "00ff00ff00ff00ff", Party: 2, LastAcked: 17},
		{Version: ProtocolVersion, Resume: true, Token: "", Party: 1, LastAcked: 0, NeedJob: true},
	} {
		got, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("decode(%+v): %v", h, err)
		}
		if got != h {
			t.Errorf("hello round trip: got %+v, want %+v", got, h)
		}
	}
	if _, err := decodeHello([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Error("hello with bad magic decoded")
	}
	if _, err := decodeHello(append(encodeHello(hello{Version: 3}), 0)); err == nil {
		t.Error("hello with trailing bytes decoded")
	}
}

// TestRTTRingEdgeCases pins the heartbeat percentile estimator's corners:
// no samples, one sample, non-positive samples, nearest-rank selection,
// and ring wraparound past the 64-sample capacity.
func TestRTTRingEdgeCases(t *testing.T) {
	p := &peer{}
	if got := p.rttP99(); got != 0 {
		t.Fatalf("empty ring p99 = %s, want 0", got)
	}
	// A pong matched against a missing/stale ping stamp yields a
	// non-positive RTT; those must never enter the ring.
	p.recordRTT(0)
	p.recordRTT(-time.Millisecond)
	if got := p.rttP99(); got != 0 {
		t.Fatalf("non-positive samples entered the ring: p99 = %s", got)
	}
	p.recordRTT(5 * time.Millisecond)
	if got := p.rttP99(); got != 5*time.Millisecond {
		t.Fatalf("single-sample p99 = %s, want 5ms", got)
	}
	// With fewer than 100 samples, nearest-rank p99 is the max — order of
	// arrival must not matter.
	p.recordRTT(1 * time.Millisecond)
	if got := p.rttP99(); got != 5*time.Millisecond {
		t.Fatalf("two-sample p99 = %s, want the max (5ms)", got)
	}
	// Overfill the ring: only the newest rttRing samples may survive.
	for i := 1; i <= 3*rttRing; i++ {
		p.recordRTT(time.Duration(i) * time.Millisecond)
	}
	if got, want := p.rttP99(), time.Duration(3*rttRing)*time.Millisecond; got != want {
		t.Fatalf("post-wraparound p99 = %s, want %s", got, want)
	}
	// A fresh outlier lands in the ring immediately (it overwrites the
	// oldest slot, not a dead one past the wrap point).
	p.recordRTT(time.Second)
	if got := p.rttP99(); got != time.Second {
		t.Fatalf("p99 after outlier = %s, want 1s", got)
	}
}

// TestPeerCloseConcurrent closes one started peer from several goroutines
// at once, as Coordinator.Close can race a failed pump's connFailed when a
// worker hangs up during Shutdown: every close must return, and none may
// close the heartbeat's stop channel a second time.
func TestPeerCloseConcurrent(t *testing.T) {
	for i := 0; i < 2000; i++ {
		a, b := net.Pipe()
		p := newPeer(a, 1, 0)
		p.start(time.Hour)
		var wg sync.WaitGroup
		gate := make(chan struct{}) // released at once, to line the closes up
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				p.close()
			}()
		}
		close(gate)
		wg.Wait()
		b.Close()
	}
}

// TestTransportBindFlags checks the shared liveness flag set: defaults
// parse to the documented values and each invalid combination is refused
// with a clear error.
func TestTransportBindFlags(t *testing.T) {
	parse := func(args ...string) (Options, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		get := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			return Options{}, err
		}
		return get()
	}
	o, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if o.HeartbeatInterval != 250*time.Millisecond || o.PeerTimeout != 3*time.Second ||
		o.RejoinGrace != 0 || o.CorruptTolerance != 0 {
		t.Fatalf("defaults = %+v", o)
	}
	o, err = parse("-heartbeat", "100ms", "-peer-deadline", "1s", "-rejoin-grace", "30s")
	if err != nil {
		t.Fatal(err)
	}
	if o.HeartbeatInterval != 100*time.Millisecond || o.PeerTimeout != time.Second ||
		o.RejoinGrace != 30*time.Second {
		t.Fatalf("custom flags = %+v", o)
	}
	for _, bad := range [][]string{
		{"-heartbeat", "0s"},
		{"-peer-deadline", "0s"},
		{"-heartbeat", "3s", "-peer-deadline", "1s"},
		{"-heartbeat", "1s", "-peer-deadline", "1s"},
		{"-rejoin-grace", "-1s"},
		{"-corrupt-tolerance", "3"}, // the tolerance is DefaultCorruptTolerance
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("flags %v: validation passed, want error", bad)
		}
	}
}
