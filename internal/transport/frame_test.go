package transport

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcdist/internal/trace"
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

// testWords is the payload type of the transport's own tests.
type testWords []int

func (p testWords) Words() int { return len(p) + 1 }

// notPayload is a registered type that is not a Payload.
type notPayload struct{ N int }

func init() {
	Register("transporttest.words", testWords(nil))
	Register("transporttest.notPayload", notPayload{})
}

// bodyCase is one frame body, as its sender builds it.
type bodyCase struct {
	name string
	body any
}

// helloCases are the fHello bodies: a fresh worker's, with and without
// the job request, and a rejoining worker's, with and without a token.
func helloCases() []bodyCase {
	return []bodyCase{
		{"fresh hello", hello{Magic: helloMagic, Version: ProtocolVersion}},
		{"fresh hello needing the job", hello{Magic: helloMagic, Version: ProtocolVersion, NeedJob: true}},
		{"resume hello", hello{Magic: helloMagic, Version: ProtocolVersion, Resume: true,
			Token: "00ff00ff00ff00ff", Party: 2, LastAcked: 17}},
		{"resume hello, no token", hello{Magic: helloMagic, Version: ProtocolVersion, Resume: true,
			Party: 1, NeedJob: true}},
	}
}

// welcomeCases are the fWelcome bodies: one with every field set, and one
// with an empty type table and a negative clock stamp.
func welcomeCases() []bodyCase {
	return []bodyCase{
		{"welcome", welcome{Magic: helloMagic, Version: ProtocolVersion, Parties: 4, Self: 2,
			ClockNs: 1_700_000_000_123_456_789, Telemetry: true, Token: "00ff00ff00ff00ff",
			HeartbeatNs: 40e6, PeerTimeoutNs: 900e6, GraceNs: 2e9, Table: []string{"mpc.Int", "mpc.Ints"}}},
		{"welcome, empty table", welcome{Magic: helloMagic, Version: ProtocolVersion, Parties: 2, Self: 1, ClockNs: -5}},
	}
}

// roundCases are the bodies of the rounds: records, assignment, job and
// telemetry.
func roundCases() []bodyCase {
	recs := []Record{
		{Machine: -1, Ops: 7, Started: true, StartNs: 5, EndNs: 9, QueueNs: 2,
			Msgs: []Msg{{To: 3, Data: testWords{1, -2}}, {To: 0, Data: testWords(nil)}}},
		{Machine: 4, Failures: 2, Retries: 1, Crashed: true, CrashAttempts: 3},
	}
	return []bodyCase{
		{"records", recordsBody{Seq: 3, Meta: testMeta, Records: recs}},
		{"assign", assignBody{Seq: 3, IDs: []int{1, 5, -2}}},
		{"job", jobBody{Seq: 2, Data: []byte("spec")}},
		{"telemetry", telemetryBody{Events: []trace.Event{
			{Kind: trace.KindSpan, Name: "r", Phase: trace.PhaseGraph, Party: 2, Round: 1, Machine: 3,
				StartNs: 1_700_000_000_000_000_000, EndNs: 1_700_000_000_000_400_000, Ops: 9},
			{Kind: trace.KindRound, Detail: "crash", Straggler: 1.5, Failures: 1}}}},
	}
}

// bodyCases is every frame body case.
func bodyCases() []bodyCase {
	return append(append(helloCases(), welcomeCases()...), roundCases()...)
}

// checkBodyRoundTrips encodes each body and decodes it back into its
// type: the same value, and a trailing byte is refused.
func checkBodyRoundTrips(t *testing.T, cases []bodyCase) {
	t.Helper()
	c := NewCodec()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := c.AppendValue(nil, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			ptr := reflect.New(reflect.TypeOf(tc.body))
			if err := c.ReadValue(buf, ptr.Interface()); err != nil {
				t.Fatal(err)
			}
			if got := ptr.Elem().Interface(); !reflect.DeepEqual(got, tc.body) {
				t.Errorf("round trip: got %+v, want %+v", got, tc.body)
			}
			if err := c.ReadValue(append(buf, 0), ptr.Interface()); err == nil {
				t.Error("body with a trailing byte decoded")
			}
			if _, ok := tc.body.(recordsBody); !ok {
				return
			}
			if _, err := noTable.AppendValue(nil, tc.body); err == nil {
				t.Error("the nil codec encoded payloads")
			}
		})
	}
}

// TestHelloRoundTrip round-trips the fHello bodies. A hello without the
// magic is refused by the coordinator's admit (TestAdmitBadMagic).
func TestHelloRoundTrip(t *testing.T) { checkBodyRoundTrips(t, helloCases()) }

// TestWelcomeRoundTrip round-trips the fWelcome bodies: the clock stamp,
// telemetry flag, token and liveness settings survive alongside the party
// geometry and the codec table.
func TestWelcomeRoundTrip(t *testing.T) { checkBodyRoundTrips(t, welcomeCases()) }

// TestFrameBodyRoundTrip round-trips the bodies of the rounds. The nil
// codec of the handshake cannot encode records (their payloads need the
// type table).
func TestFrameBodyRoundTrip(t *testing.T) { checkBodyRoundTrips(t, roundCases()) }

// FuzzFrameBodies feeds arbitrary bytes to the decoder of each frame body:
// it must refuse them, or decode a value that re-encodes to exactly those
// bytes, and never panic.
func FuzzFrameBodies(f *testing.F) {
	c := NewCodec()
	cases := bodyCases()
	for i, tc := range cases {
		buf, err := c.AppendValue(nil, tc.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), buf)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		ptr := reflect.New(reflect.TypeOf(cases[int(kind)%len(cases)].body))
		if err := c.ReadValue(data, ptr.Interface()); err != nil {
			return
		}
		re, err := c.AppendValue(nil, ptr.Elem().Interface())
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", ptr.Elem(), err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("%+v re-encodes as\n% x\nwas\n% x", ptr.Elem(), re, data)
		}
	})
}

// TestRecordsRejectNonPayload sends a records body whose outbox holds a
// registered type that is not a Payload, as a peer of a diverged build
// could: the records decoder must refuse it rather than hand the driver a
// message it cannot size. The body is encoded through a mirror of
// recordsBody whose message field is any; the structural encoding does
// not depend on type names, so the mirror's bytes are a records body.
func TestRecordsRejectNonPayload(t *testing.T) {
	type anyMsg struct {
		To   int
		Data any
	}
	type anyRecord struct {
		Machine                 int
		Ops                     int64
		Started                 bool
		StartNs, EndNs, QueueNs int64
		Failures, Retries       int
		Crashed                 bool
		CrashAttempts           int
		Msgs                    []anyMsg
	}
	type anyRecords struct {
		Seq     int
		Meta    RoundMeta
		Records []anyRecord
	}
	c := NewCodec()
	for _, tc := range []struct {
		data any
		ok   bool
	}{{testWords{1}, true}, {notPayload{}, false}} {
		body, err := c.AppendValue(nil, anyRecords{Seq: 1, Meta: testMeta,
			Records: []anyRecord{{Machine: 2, Msgs: []anyMsg{{To: 0, Data: tc.data}}}}})
		if err != nil {
			t.Fatal(err)
		}
		var rb recordsBody
		err = c.ReadValue(body, &rb)
		if tc.ok && err != nil {
			t.Fatalf("the mirror's records body with a %T payload: %v", tc.data, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "does not implement transport.Payload")) {
			t.Errorf("records carrying a %T: err = %v, want a decode error", tc.data, err)
		}
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
