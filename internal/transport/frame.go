package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Wire protocol (see docs/DISTRIBUTED.md): every frame is
//
//	[1 byte type][4 bytes big-endian body length][body][4 bytes CRC32-C]
//
// The trailing checksum covers the header and body, so a flipped bit
// anywhere in the frame — type, length, or payload — surfaces as a typed
// CorruptFrameError instead of reaching the codec. Bodies are built from
// the same primitives as the payload codec (varints, length-prefixed
// strings); records embed codec-encoded payload values.

// ProtocolVersion is bumped on any incompatible change to the framing or
// the handshake. The coordinator rejects workers announcing a different
// version. Version 2 added the welcome's clock-sync timestamp and
// telemetry flag, plus the fTelemetry and fPong frames. Version 3 added
// the CRC32-C frame trailer and the session-resume handshake (structured
// hello, welcome session token + rejoin grace).
const ProtocolVersion = 3

// helloMagic opens the fHello body so a coordinator can immediately reject
// a stray connection that is not an mpcdist worker.
const helloMagic = 0x4d504358 // "MPCX"

type frameType byte

const (
	fHello     frameType = 1  // worker -> coordinator: magic, protocol version
	fWelcome   frameType = 2  // coordinator -> worker: version, parties, party id, codec table
	fJobStart  frameType = 3  // coordinator -> worker: opaque job spec
	fResult    frameType = 4  // worker -> coordinator: opaque result digest
	fShutdown  frameType = 5  // coordinator -> worker: session over
	fRecords   frameType = 6  // worker -> coordinator: seq, meta, execution records
	fAssign    frameType = 7  // coordinator -> worker: seq, extra machine ids (reassignment)
	fMerged    frameType = 8  // coordinator -> worker: seq, meta, full merged round
	fPing      frameType = 9  // either direction: heartbeat, empty body
	fError     frameType = 10 // either direction: fatal condition, message string
	fTelemetry frameType = 11 // worker -> coordinator: codec-encoded trace.Telemetry (out-of-band)
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

// appendFrame encodes one complete wire frame — header, body, CRC32-C
// trailer — onto buf. It is the single source of truth for the frame
// layout; peer.write produces identical bytes and the corruption fuzz
// target mutates its output.
func appendFrame(buf []byte, t frameType, body []byte) []byte {
	buf = append(buf, byte(t))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	sum := crc32.Update(0, crcTable, buf[len(buf)-len(body)-frameHeaderLen:])
	return binary.BigEndian.AppendUint32(buf, sum)
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
	sorted := append([]time.Duration(nil), p.rtts...)
	p.rttMu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (99*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
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

// write sends one frame; safe for concurrent use. The CRC is computed
// incrementally over header and body so large bodies are never copied.
func (p *peer) write(t frameType, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("transport: %s frame of %d bytes exceeds limit %d", t, len(body), maxFrame)
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	if _, err := p.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := p.bw.Write(body); err != nil {
		return err
	}
	sum := crc32.Update(0, crcTable, hdr[:])
	sum = crc32.Update(sum, crcTable, body)
	var trailer [frameCRCLen]byte
	binary.BigEndian.PutUint32(trailer[:], sum)
	if _, err := p.bw.Write(trailer[:]); err != nil {
		return err
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

// ---- body builders/parsers ----

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, errTruncated
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, data[n:], nil
}

func readVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, data[n:], nil
}

func appendMeta(buf []byte, seq int, meta RoundMeta) []byte {
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = binary.AppendVarint(buf, int64(meta.Round))
	buf = appendString(buf, meta.Name)
	return appendString(buf, meta.Phase)
}

func readMeta(data []byte) (int, RoundMeta, []byte, error) {
	seq, data, err := readUvarint(data)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	round, data, err := readVarint(data)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	name, data, err := readString(data)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	phase, data, err := readString(data)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	return int(seq), RoundMeta{Round: int(round), Name: name, Phase: phase}, data, nil
}

// encodeRecords builds an fRecords/fMerged body: seq, meta, then the
// records with codec-encoded outbox payloads.
func encodeRecords(c *Codec, seq int, meta RoundMeta, recs []Record) ([]byte, error) {
	buf := appendMeta(nil, seq, meta)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendVarint(buf, int64(r.Machine))
		buf = binary.AppendVarint(buf, r.Ops)
		if r.Started {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendVarint(buf, r.StartNs)
		buf = binary.AppendVarint(buf, r.EndNs)
		buf = binary.AppendVarint(buf, r.QueueNs)
		buf = binary.AppendVarint(buf, int64(r.Failures))
		buf = binary.AppendVarint(buf, int64(r.Retries))
		if r.Crashed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendVarint(buf, int64(r.CrashAttempts))
		buf = binary.AppendUvarint(buf, uint64(len(r.Msgs)))
		for _, m := range r.Msgs {
			buf = binary.AppendVarint(buf, int64(m.To))
			var err error
			if buf, err = c.Encode(buf, m.Data); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// decodeRecords parses an fRecords/fMerged body. Decoded records are
// flagged Remote; the caller clears the flag on machines it executed
// itself.
func decodeRecords(c *Codec, body []byte) (int, RoundMeta, []Record, error) {
	seq, meta, data, err := readMeta(body)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	count, data, err := readUvarint(data)
	if err != nil {
		return 0, RoundMeta{}, nil, err
	}
	if count > uint64(len(data))+1 {
		return 0, RoundMeta{}, nil, fmt.Errorf("transport: record count %d exceeds body", count)
	}
	recs := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		var r Record
		var v int64
		if v, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		r.Machine = int(v)
		if r.Ops, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		if len(data) < 1 {
			return 0, RoundMeta{}, nil, errTruncated
		}
		r.Started = data[0] == 1
		data = data[1:]
		if r.StartNs, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		if r.EndNs, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		if r.QueueNs, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		if v, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		r.Failures = int(v)
		if v, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		r.Retries = int(v)
		if len(data) < 1 {
			return 0, RoundMeta{}, nil, errTruncated
		}
		r.Crashed = data[0] == 1
		data = data[1:]
		if v, data, err = readVarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		r.CrashAttempts = int(v)
		var nm uint64
		if nm, data, err = readUvarint(data); err != nil {
			return 0, RoundMeta{}, nil, err
		}
		if nm > uint64(len(data))+1 {
			return 0, RoundMeta{}, nil, fmt.Errorf("transport: outbox count %d exceeds body", nm)
		}
		r.Msgs = make([]Msg, 0, nm)
		for j := uint64(0); j < nm; j++ {
			if v, data, err = readVarint(data); err != nil {
				return 0, RoundMeta{}, nil, err
			}
			var payload any
			if payload, data, err = c.DecodePrefix(data); err != nil {
				return 0, RoundMeta{}, nil, err
			}
			r.Msgs = append(r.Msgs, Msg{To: int(v), Data: payload})
		}
		r.Remote = true
		recs = append(recs, r)
	}
	if len(data) != 0 {
		return 0, RoundMeta{}, nil, fmt.Errorf("transport: %d trailing bytes after records", len(data))
	}
	return seq, meta, recs, nil
}

// encodeJobBody prefixes an fJobStart spec or an fResult digest with the
// job sequence number it belongs to, so a re-sent frame from a recovered
// connection is detectable: a worker never runs a job twice, and the
// coordinator never takes an earlier job's result for the current one.
func encodeJobBody(jobSeq uint64, data []byte) []byte {
	return append(binary.AppendUvarint(nil, jobSeq), data...)
}

func decodeJobBody(body []byte) (uint64, []byte, error) { return readUvarint(body) }

func encodeAssign(seq int, ids []int) []byte {
	buf := binary.AppendUvarint(nil, uint64(seq))
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendVarint(buf, int64(id))
	}
	return buf
}

func decodeAssign(body []byte) (int, []int, error) {
	seq, data, err := readUvarint(body)
	if err != nil {
		return 0, nil, err
	}
	count, data, err := readUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if count > uint64(len(data))+1 {
		return 0, nil, fmt.Errorf("transport: assign count %d exceeds body", count)
	}
	ids := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		var v int64
		if v, data, err = readVarint(data); err != nil {
			return 0, nil, err
		}
		ids = append(ids, int(v))
	}
	if len(data) != 0 {
		return 0, nil, fmt.Errorf("transport: %d trailing bytes after assign", len(data))
	}
	return int(seq), ids, nil
}

// welcome is the decoded fWelcome body. ClockNs is the coordinator's
// wall clock when it built the frame — the worker combines it with its
// own hello-send and welcome-receive times into an NTP-style midpoint
// offset estimate. Telemetry tells the worker whether to buffer and ship
// trace telemetry back at round barriers. Token is the session-resume
// credential a dropped worker presents when redialing; GraceNs is how
// long the coordinator will hold the worker's slot for that rejoin
// (0 = the coordinator evicts immediately, so don't bother).
type welcome struct {
	Version   int
	Parties   int
	Self      int
	ClockNs   int64
	Telemetry bool
	Token     string
	GraceNs   int64
	Table     []string
}

func encodeWelcome(w welcome) []byte {
	buf := binary.AppendUvarint(nil, uint64(w.Version))
	buf = binary.AppendUvarint(buf, uint64(w.Parties))
	buf = binary.AppendUvarint(buf, uint64(w.Self))
	buf = binary.AppendVarint(buf, w.ClockNs)
	if w.Telemetry {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, w.Token)
	buf = binary.AppendVarint(buf, w.GraceNs)
	buf = binary.AppendUvarint(buf, uint64(len(w.Table)))
	for _, name := range w.Table {
		buf = appendString(buf, name)
	}
	return buf
}

func decodeWelcome(body []byte) (welcome, error) {
	var w welcome
	v, data, err := readUvarint(body)
	if err != nil {
		return w, err
	}
	w.Version = int(v)
	p, data, err := readUvarint(data)
	if err != nil {
		return w, err
	}
	w.Parties = int(p)
	s, data, err := readUvarint(data)
	if err != nil {
		return w, err
	}
	w.Self = int(s)
	if w.ClockNs, data, err = readVarint(data); err != nil {
		return w, err
	}
	if len(data) < 1 {
		return w, errTruncated
	}
	w.Telemetry = data[0] == 1
	data = data[1:]
	if w.Token, data, err = readString(data); err != nil {
		return w, err
	}
	if w.GraceNs, data, err = readVarint(data); err != nil {
		return w, err
	}
	count, data, err := readUvarint(data)
	if err != nil {
		return w, err
	}
	if count > uint64(len(data))+1 {
		return w, fmt.Errorf("transport: table count %d exceeds body", count)
	}
	w.Table = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		var name string
		if name, data, err = readString(data); err != nil {
			return w, err
		}
		w.Table = append(w.Table, name)
	}
	if len(data) != 0 {
		return w, fmt.Errorf("transport: %d trailing bytes after welcome", len(data))
	}
	return w, nil
}

// hello is the decoded fHello body. A fresh worker sends only the magic
// and version; a worker resuming a dropped session additionally presents
// the session token, its party id, the last merged exchange seq it fully
// processed (so the coordinator can resend a merged frame lost in
// flight), and whether it still needs the current job spec (it was
// between jobs when the connection died).
type hello struct {
	Version   int
	Resume    bool
	Token     string
	Party     int
	LastAcked int
	NeedJob   bool
}

func encodeHello(h hello) []byte {
	buf := binary.AppendUvarint(nil, helloMagic)
	buf = binary.AppendUvarint(buf, uint64(h.Version))
	var flags byte
	if h.Resume {
		flags |= 1
	}
	if h.NeedJob {
		flags |= 2
	}
	buf = append(buf, flags)
	if !h.Resume {
		return buf
	}
	buf = appendString(buf, h.Token)
	buf = binary.AppendUvarint(buf, uint64(h.Party))
	return binary.AppendUvarint(buf, uint64(h.LastAcked))
}

func decodeHello(body []byte) (hello, error) {
	var h hello
	magic, data, err := readUvarint(body)
	if err != nil {
		return h, err
	}
	if magic != helloMagic {
		return h, fmt.Errorf("transport: bad hello magic %#x", magic)
	}
	v, data, err := readUvarint(data)
	if err != nil {
		return h, err
	}
	h.Version = int(v)
	if len(data) < 1 {
		return h, errTruncated
	}
	flags := data[0]
	data = data[1:]
	h.Resume = flags&1 != 0
	h.NeedJob = flags&2 != 0
	if h.Resume {
		if h.Token, data, err = readString(data); err != nil {
			return h, err
		}
		var p, acked uint64
		if p, data, err = readUvarint(data); err != nil {
			return h, err
		}
		h.Party = int(p)
		if acked, data, err = readUvarint(data); err != nil {
			return h, err
		}
		h.LastAcked = int(acked)
	}
	if len(data) != 0 {
		return h, fmt.Errorf("transport: %d trailing bytes after hello", len(data))
	}
	return h, nil
}
