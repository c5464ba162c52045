package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpcdist/internal/trace"
)

// Wire protocol (see docs/DISTRIBUTED.md): every frame is
//
//	[1 byte type][4 bytes big-endian body length][body][4 bytes CRC32-C]
//
// The trailing checksum covers the header and body, so a flipped bit
// anywhere in the frame — type, length, or payload — surfaces as a typed
// CorruptFrameError instead of reaching the codec. Bodies are structs in
// the payload codec's structural encoding (the body types below).

// ProtocolVersion is bumped on any incompatible change to the framing or
// the handshake. The coordinator rejects workers announcing a different
// version. Version 2 added the welcome's clock-sync timestamp and
// telemetry flag, plus the fTelemetry and fPong frames. Version 3 added
// the CRC32-C frame trailer and the session-resume handshake (structured
// hello, welcome session token + rejoin grace). Version 4 made every body
// a struct in the codec's structural encoding and added the heartbeat
// interval and peer deadline to the welcome. Version 5 made the fTelemetry
// body a list of events already on the coordinator's clock and dropped
// the records' Remote flag.
const ProtocolVersion = 5

// helloMagic opens the fHello and fWelcome bodies so either side can
// immediately reject a stray connection that is not an mpcdist peer.
const helloMagic = 0x4d504358 // "MPCX"

type frameType byte

const (
	fHello     frameType = 1  // worker -> coordinator: magic, protocol version
	fWelcome   frameType = 2  // coordinator -> worker: version, parties, party id, liveness settings, codec table
	fJobStart  frameType = 3  // coordinator -> worker: opaque job spec
	fResult    frameType = 4  // worker -> coordinator: opaque result digest
	fShutdown  frameType = 5  // coordinator -> worker: session over
	fRecords   frameType = 6  // worker -> coordinator: seq, meta, execution records
	fAssign    frameType = 7  // coordinator -> worker: seq, extra machine ids (reassignment)
	fMerged    frameType = 8  // coordinator -> worker: seq, meta, full merged round
	fPing      frameType = 9  // either direction: heartbeat, empty body
	fError     frameType = 10 // either direction: fatal condition, message string
	fTelemetry frameType = 11 // worker -> coordinator: the worker's logged events (out-of-band)
	fPong      frameType = 12 // either direction: heartbeat reply, empty body
)

func (t frameType) String() string {
	switch t {
	case fHello:
		return "hello"
	case fWelcome:
		return "welcome"
	case fJobStart:
		return "job-start"
	case fResult:
		return "result"
	case fShutdown:
		return "shutdown"
	case fRecords:
		return "records"
	case fAssign:
		return "assign"
	case fMerged:
		return "merged"
	case fPing:
		return "ping"
	case fError:
		return "error"
	case fTelemetry:
		return "telemetry"
	case fPong:
		return "pong"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// maxFrame caps a frame body; a longer announced length means a corrupt or
// hostile stream, not a big round.
const maxFrame = 1 << 30

// frameHeaderLen is the fixed per-frame header: type byte + length word.
const frameHeaderLen = 5

// frameCRCLen is the CRC32-C trailer every frame carries since protocol
// version 3.
const frameCRCLen = 4

// frameOverhead is the total fixed per-frame overhead on the wire.
const frameOverhead = frameHeaderLen + frameCRCLen

// crcTable drives the frame checksum: CRC32-C (Castagnoli), the
// polynomial with hardware support on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type frame struct {
	typ  frameType
	body []byte
}

// frameEnds returns the header and the CRC32-C trailer of a frame of type
// t carrying body: the frame layout, which appendFrame and peer.write
// both write.
func frameEnds(t frameType, body []byte) (hdr [frameHeaderLen]byte, crc [frameCRCLen]byte) {
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	binary.BigEndian.PutUint32(crc[:], crc32.Update(crc32.Update(0, crcTable, hdr[:]), crcTable, body))
	return hdr, crc
}

// appendFrame encodes one complete wire frame — header, body, CRC32-C
// trailer — onto buf; the corruption fuzz target mutates its output.
func appendFrame(buf []byte, t frameType, body []byte) []byte {
	hdr, crc := frameEnds(t, body)
	return append(append(append(buf, hdr[:]...), body...), crc[:]...)
}

// readFrame reads and verifies one frame from br. Integrity violations —
// an impossible announced length or a checksum mismatch — come back as
// *CorruptFrameError; plain I/O errors pass through unchanged. A corrupt
// frame leaves the stream position undefined (the length word itself may
// be the corrupted byte), so callers must recycle the connection rather
// than resynchronize.
func readFrame(br *bufio.Reader) (frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return frame{}, &CorruptFrameError{Type: hdr[0], Len: int64(n),
			Reason: fmt.Sprintf("announced length exceeds limit %d", maxFrame)}
	}
	body := make([]byte, n+frameCRCLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return frame{}, err
	}
	sum := crc32.Update(0, crcTable, hdr[:])
	sum = crc32.Update(sum, crcTable, body[:n])
	if got := binary.BigEndian.Uint32(body[n:]); got != sum {
		return frame{}, &CorruptFrameError{Type: hdr[0], Len: int64(n),
			Reason: fmt.Sprintf("crc mismatch: frame carries %#08x, computed %#08x", got, sum)}
	}
	return frame{typ: frameType(hdr[0]), body: body[:n:n]}, nil
}

// countConn counts bytes crossing a net.Conn — the bytes-on-wire metric
// surfaced through Stats and the bench transport dimension.
type countConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// peer is one live connection, either side. Frames are written under wmu
// (round traffic and the heartbeat ticker share the conn); inbound frames
// are pumped by a reader goroutine into frames, which closes on error with
// the cause left in readErr.
type peer struct {
	party int // the remote party's index
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	wmu   sync.Mutex

	bytesIn, bytesOut atomic.Int64
	frames            atomic.Int64
	corrupt           atomic.Int64 // frames this conn rejected on CRC/length

	// Heartbeat RTT: pingLoop stamps lastPingNs before each fPing; the
	// fPong reply closes the loop in readLoop. Samples live in a small
	// ring so the p99 tracks recent conditions.
	lastPingNs  atomic.Int64
	lastHeardNs atomic.Int64
	rttMu       sync.Mutex
	rtts        []time.Duration // ring of recent heartbeat RTTs
	rttNext     int

	inbox    chan frame
	readErr  error // valid after inbox closes
	stopPing chan struct{}
	stopOnce sync.Once // close may race: a failed pump against Close
	pingDone sync.WaitGroup
	timeout  time.Duration
}

// rttRing caps the heartbeat RTT sample ring.
const rttRing = 64

func (p *peer) recordRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	p.rttMu.Lock()
	if len(p.rtts) < rttRing {
		p.rtts = append(p.rtts, d)
	} else {
		p.rtts[p.rttNext] = d
		p.rttNext = (p.rttNext + 1) % rttRing
	}
	p.rttMu.Unlock()
}

// rttP99 is the nearest-rank 99th percentile of the recent heartbeat RTT
// samples (the max for fewer than 100 samples), 0 with no samples yet.
func (p *peer) rttP99() time.Duration {
	p.rttMu.Lock()
	defer p.rttMu.Unlock()
	return trace.Quantiles(p.rtts).P99
}

func newPeer(conn net.Conn, remoteParty int, timeout time.Duration) *peer {
	p := &peer{party: remoteParty, timeout: timeout}
	p.conn = countConn{Conn: conn, in: &p.bytesIn, out: &p.bytesOut}
	p.br = bufio.NewReaderSize(p.conn, 64<<10)
	p.bw = bufio.NewWriterSize(p.conn, 64<<10)
	p.inbox = make(chan frame, 4)
	p.stopPing = make(chan struct{})
	return p
}

// start arms a chaos wrapper (see Options.WrapConn) and launches the
// reader and heartbeat goroutines; call after the handshake, so handshake
// frames are read synchronously and never perturbed.
func (p *peer) start(interval time.Duration) {
	if a, ok := p.conn.(countConn).Conn.(interface{ Arm() }); ok {
		a.Arm()
	}
	go p.readLoop()
	p.pingDone.Add(1)
	go p.pingLoop(interval)
}

// readLoop pumps frames into the inbox under a rolling read deadline: any
// frame (heartbeats included) pushes the deadline out, so a peer is
// declared dead only after timeout with a silent wire. Heartbeats are
// swallowed here — a ping is answered with a pong, a pong closes the RTT
// measurement opened by pingLoop; everything else is delivered in order.
func (p *peer) readLoop() {
	defer close(p.inbox)
	for {
		f, err := p.read()
		if err != nil {
			p.readErr = err
			return
		}
		switch f.typ {
		case fPing:
			// Reply errors mean a broken conn; the next read sees it too.
			_ = p.write(fPong, nil)
			continue
		case fPong:
			if sent := p.lastPingNs.Load(); sent > 0 {
				p.recordRTT(time.Duration(time.Now().UnixNano() - sent))
			}
			continue
		}
		p.inbox <- f
	}
}

func (p *peer) pingLoop(interval time.Duration) {
	defer p.pingDone.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopPing:
			return
		case <-t.C:
			// A failed ping means the conn is broken; the read side will
			// notice and declare the peer lost, so the error is dropped.
			p.lastPingNs.Store(time.Now().UnixNano())
			if p.write(fPing, nil) != nil {
				return
			}
		}
	}
}

// read blocks for one frame, refreshing the deadline first. A corrupt
// frame (CRC or length-word violation) is counted and returned as a
// *CorruptFrameError; the stream is unrecoverable past it.
func (p *peer) read() (frame, error) {
	if p.timeout > 0 {
		if err := p.conn.SetReadDeadline(time.Now().Add(p.timeout)); err != nil {
			return frame{}, err
		}
	}
	f, err := readFrame(p.br)
	if err != nil {
		var cfe *CorruptFrameError
		if errors.As(err, &cfe) {
			cfe.Party = p.party
			p.corrupt.Add(1)
		}
		return frame{}, err
	}
	p.frames.Add(1)
	p.lastHeardNs.Store(time.Now().UnixNano())
	return f, nil
}

// write sends one frame; safe for concurrent use. Header, body and
// trailer are written in turn, so large bodies are never copied.
func (p *peer) write(t frameType, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("transport: %s frame of %d bytes exceeds limit %d", t, len(body), maxFrame)
	}
	hdr, crc := frameEnds(t, body)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	for _, b := range [][]byte{hdr[:], body, crc[:]} {
		if _, err := p.bw.Write(b); err != nil {
			return err
		}
	}
	p.frames.Add(1)
	return p.bw.Flush()
}

// close tears the connection down and stops the heartbeat.
func (p *peer) close() {
	p.stopOnce.Do(func() { close(p.stopPing) })
	p.conn.Close()
	p.pingDone.Wait()
}

// ---- frame bodies ----
//
// Every body is a struct in the codec's structural encoding. The records
// bodies hold payloads and go through the session codec; the others hold
// no interface, so the nil codec (no type table) encodes them, including
// the handshake, which runs before the table is known.

// recordsBody is an fRecords or fMerged body: one exchange's records.
type recordsBody struct {
	Seq     int
	Meta    RoundMeta
	Records []Record
}

// telemetryBody is an fTelemetry body: the events a worker's log recorded
// since its previous flush, rebased onto the coordinator's clock. The
// coordinator logs them under the party of the connection they arrived
// on.
type telemetryBody struct {
	Events []trace.Event
}

// assignBody is an fAssign body: machine ids to re-execute in exchange
// Seq.
type assignBody struct {
	Seq int
	IDs []int
}

// jobBody is an fJobStart spec or an fResult digest with the job sequence
// number it belongs to, so a re-sent frame from a recovered connection is
// detectable: a worker never runs a job twice, and the coordinator never
// takes an earlier job's result for the current one.
type jobBody struct {
	Seq  uint64
	Data []byte
}

// noTable is the nil codec: with no type table it serves the bodies that
// hold no interface value.
var noTable *Codec

// appendBody encodes a body that holds no interface value, which only a
// bug in the body's type can make fail.
func appendBody(v any) []byte {
	buf, err := noTable.AppendValue(nil, v)
	if err != nil {
		panic(err)
	}
	return buf
}

// welcome is the fWelcome body. ClockNs is the coordinator's wall clock
// when it built the frame — the worker combines it with its own hello-send
// and welcome-receive times into an NTP-style midpoint offset estimate.
// Telemetry tells the worker whether to buffer and ship trace telemetry
// back at round barriers. Token is the session-resume credential a
// dropped worker presents when redialing. HeartbeatNs, PeerTimeoutNs and
// GraceNs are the session's liveness settings, which the worker adopts:
// GraceNs is how long the coordinator will hold the worker's slot for a
// rejoin (0 = the coordinator evicts immediately, so don't bother).
type welcome struct {
	Magic         uint32
	Version       uint32
	Parties       int
	Self          int
	ClockNs       int64
	Telemetry     bool
	Token         string
	HeartbeatNs   int64
	PeerTimeoutNs int64
	GraceNs       int64
	Table         []string
}

// liveness returns o with the welcome's liveness settings in place of its
// own; a heartbeat or peer deadline that is not positive takes the
// default.
func (w welcome) liveness(o Options) Options {
	o.HeartbeatInterval = time.Duration(w.HeartbeatNs)
	o.PeerTimeout = time.Duration(w.PeerTimeoutNs)
	o.RejoinGrace = time.Duration(w.GraceNs)
	return o.withDefaults()
}

// hello is the fHello body. A fresh worker leaves the resume fields zero;
// a worker resuming a dropped session presents the session token, its
// party id, the last merged exchange seq it fully processed (so the
// coordinator can resend a merged frame lost in flight), and whether it
// still needs the current job spec (it was between jobs when the
// connection died). Magic and Version come first in both handshake
// bodies, so a peer of another protocol version is told so even when the
// rest of its body does not decode.
type hello struct {
	Magic     uint32
	Version   uint32
	Resume    bool
	NeedJob   bool
	Token     string
	Party     int
	LastAcked int
}
