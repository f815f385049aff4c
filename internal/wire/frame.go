// Package wire is the one implementation of the repository's frame
// protocols: the codec every DSTFRv1 (internal/dist) and FLTFRv1
// (internal/fleet) byte passes through, the payload primitives, and
// both halves of the connection lifecycle — a Server that accepts,
// handshakes, heartbeats and joins its peers' goroutines, and a client
// dial loop that reconnects with backoff. The two protocols differ
// only in their Protocol value (magic, payload cap, frame-type numbers,
// metric prefix) and in the frame types their packages define on top;
// docs/wire-frame.md is the byte-level specification.
//
// Robustness is structural, not best-effort: every frame is CRC32- and
// sequence-checked, so a dropped, truncated, or corrupted frame kills
// the connection rather than desynchronizing the two ends; the client
// redials and the package above re-establishes its state from scratch,
// so recovery is idempotent.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// Protocol is one frame protocol generation: everything the shared
// codec and lifecycle need to know that differs between DSTFRv1 and
// FLTFRv1. A package declares one value and passes it to NewConn,
// Listen and RunClient.
type Protocol struct {
	// Magic opens every frame, TRCKPv1-style: ASCII tag + version +
	// newline, so a stray connection (or a desynchronized stream) is
	// detected on the first 8 bytes.
	Magic [8]byte
	// MaxPayload bounds a frame's declared payload length. A corrupt
	// length field must not make the receiver allocate gigabytes before
	// the CRC check can catch it.
	MaxPayload uint32
	// Version is the payload-schema generation carried in
	// Hello/Welcome. Both ends refuse a peer speaking a different
	// version: there is no negotiation.
	Version uint32
	// Hello, Welcome, Ping, Pong and Bye are the package's frame-type
	// numbers for the five frames the lifecycle itself sends and
	// interprets; every other type is opaque to this package.
	Hello, Welcome, Ping, Pong, Bye uint8
	// Names are the frame types' names for log and error lines, indexed
	// by type number.
	Names []string
	// Metrics is the protocol's series set (see NewMetrics).
	Metrics *Metrics
}

// TypeName renders a frame type for log and error lines.
func (p *Protocol) TypeName(t uint8) string {
	if int(t) < len(p.Names) {
		return p.Names[t]
	}
	return fmt.Sprintf("frame(%d)", t)
}

// Metrics are the series the codec and lifecycle maintain for one
// protocol, registered with obs.Default under the protocol's prefix.
type Metrics struct {
	prefix string

	// FramesSent, FramesRecv, BytesSent and BytesRecv count validated
	// frame traffic in both directions.
	FramesSent, FramesRecv, BytesSent, BytesRecv *obs.Counter
	// FrameSize, when non-nil, observes the size of every sent frame.
	FrameSize *obs.Histogram
	// WorkersLost counts peer deaths on the server side;
	// HeartbeatTimeouts the subset declared by heartbeat expiry.
	WorkersLost, HeartbeatTimeouts *obs.Counter
	// DialRetries and Reconnects count the client dial loop's failed
	// dials and failed sessions.
	DialRetries, Reconnects *obs.Counter
}

// NewMetrics registers the wire-level series as <prefix>_frames_sent_total
// and so on. frameSize is the optional sent-frame size histogram: the
// dist tier exports one, the fleet tier never has.
func NewMetrics(prefix string, frameSize *obs.Histogram) *Metrics {
	counter := func(name, help string) *obs.Counter {
		return obs.Default().Counter(prefix+name, help)
	}
	return &Metrics{
		prefix:     prefix,
		FramesSent: counter("_frames_sent_total", "Protocol frames written by this process."),
		FramesRecv: counter("_frames_recv_total", "Protocol frames received and validated by this process."),
		BytesSent:  counter("_frame_bytes_sent_total", "Bytes of protocol frames written by this process."),
		BytesRecv:  counter("_frame_bytes_recv_total", "Bytes of protocol frames received by this process."),
		FrameSize:  frameSize,
		WorkersLost: counter("_workers_lost_total",
			"Workers declared dead (heartbeat expiry, read/write error, or kill)."),
		HeartbeatTimeouts: counter("_heartbeat_timeouts_total",
			"Workers declared dead specifically by heartbeat expiry."),
		DialRetries: counter("_worker_dial_retries_total",
			"Worker dial attempts that failed and were retried with backoff."),
		Reconnects: counter("_worker_reconnects_total",
			"Worker sessions that ended in an error and re-entered the dial loop."),
	}
}

// FrameErrors counts framing violations by reason; each reason is a
// distinct labeled series registered on first use.
func (m *Metrics) FrameErrors(reason string) *obs.Counter {
	return obs.Default().Counter(m.prefix+"_frame_errors_total",
		"Frames rejected by protocol validation, by reason (magic, seq, crc, length, io).",
		"reason", reason)
}

// HeaderLen is the fixed frame prefix: magic + seq + type + length.
const HeaderLen = 8 + 8 + 1 + 4

// Conn frames a net.Conn: each frame is
//
//	magic[8] | seq u64 | type u8 | length u32 | payload | crc32 u32
//
// with the CRC (IEEE, as in TRCKPv1) covering every preceding byte of
// the frame. The per-direction sequence number starts at 0 and
// increments per frame, so a silently dropped frame is detected at the
// next frame's seq check (heartbeats bound the detection latency), and
// a truncated frame is detected when the bytes that follow it fail the
// header checks or the CRC. Every
// send issues exactly one Write, which is what lets the
// faults.NetFaultModel injector operate per-frame.
//
// Any framing violation is terminal for the connection: the caller
// tears it down and the client-side reconnect restores coherence.
type Conn struct {
	p  *Protocol
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wseq uint64
	wbuf []byte

	rseq uint64
	rbuf []byte

	// writeTimeout bounds each send so a dead peer cannot block the
	// sender forever; readTimeout bounds each recv (liveness: the peer
	// heartbeats well inside it). Zero disables the deadline.
	writeTimeout time.Duration
	readTimeout  time.Duration
}

// NewConn frames c with protocol p. Zero timeouts disable the
// corresponding deadline.
func NewConn(p *Protocol, c net.Conn, writeTimeout, readTimeout time.Duration) *Conn {
	return &Conn{
		p:            p,
		c:            c,
		br:           bufio.NewReaderSize(c, 1<<16),
		writeTimeout: writeTimeout,
		readTimeout:  readTimeout,
	}
}

// Frame renders one frame into buf (reallocated only when too small)
// and returns it: the single encoder behind Send, exported so golden
// and fuzz tests can name exact bytes.
func (p *Protocol) Frame(buf []byte, seq uint64, t uint8, payload []byte) []byte {
	total := HeaderLen + len(payload) + 4
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	b := buf[:total]
	copy(b, p.Magic[:])
	binary.LittleEndian.PutUint64(b[8:], seq)
	b[16] = t
	binary.LittleEndian.PutUint32(b[17:], uint32(len(payload)))
	copy(b[HeaderLen:], payload)
	crc := crc32.ChecksumIEEE(b[:HeaderLen+len(payload)])
	binary.LittleEndian.PutUint32(b[HeaderLen+len(payload):], crc)
	return b
}

// Send frames payload and writes it with a single Write call. It is
// safe for concurrent use: responders for different requests share one
// connection.
func (fc *Conn) Send(t uint8, payload []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.wbuf = fc.p.Frame(fc.wbuf, fc.wseq, t, payload)
	if fc.writeTimeout > 0 {
		fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout))
	}
	m := fc.p.Metrics
	if _, err := fc.c.Write(fc.wbuf); err != nil {
		m.FrameErrors("io").Inc()
		return err
	}
	fc.wseq++
	m.FramesSent.Inc()
	m.BytesSent.Add(float64(len(fc.wbuf)))
	if m.FrameSize != nil {
		m.FrameSize.Observe(float64(len(fc.wbuf)))
	}
	return nil
}

// Recv reads and validates one frame, returning its type and payload.
// The payload slice is reused across calls: decode (or copy) before
// the next Recv. Recv must be called from a single goroutine per
// connection.
func (fc *Conn) Recv() (uint8, []byte, error) {
	if fc.readTimeout > 0 {
		fc.c.SetReadDeadline(time.Now().Add(fc.readTimeout))
	}
	m := fc.p.Metrics
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
		m.FrameErrors("io").Inc()
		return 0, nil, err
	}
	if [8]byte(hdr[:8]) != fc.p.Magic {
		m.FrameErrors("magic").Inc()
		return 0, nil, fmt.Errorf("wire: bad frame magic %q, want %q (stream desynchronized)", hdr[:8], fc.p.Magic[:])
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	if seq != fc.rseq {
		m.FrameErrors("seq").Inc()
		return 0, nil, fmt.Errorf("wire: frame seq %d, want %d (frame lost)", seq, fc.rseq)
	}
	t := hdr[16]
	plen := binary.LittleEndian.Uint32(hdr[17:])
	if plen > fc.p.MaxPayload {
		m.FrameErrors("length").Inc()
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds cap %d", plen, fc.p.MaxPayload)
	}
	need := int(plen) + 4
	if cap(fc.rbuf) < need {
		fc.rbuf = make([]byte, need)
	}
	body := fc.rbuf[:need]
	if _, err := io.ReadFull(fc.br, body); err != nil {
		m.FrameErrors("io").Inc()
		return 0, nil, err
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:plen])
	if crc != binary.LittleEndian.Uint32(body[plen:]) {
		m.FrameErrors("crc").Inc()
		return 0, nil, fmt.Errorf("wire: frame %s seq %d failed CRC", fc.p.TypeName(t), seq)
	}
	fc.rseq++
	m.FramesRecv.Inc()
	m.BytesRecv.Add(float64(HeaderLen + need))
	return t, body[:plen], nil
}

// ErrDismissed is RecvData's report of a Bye frame: the server is done
// with this client, which must exit instead of redialing.
var ErrDismissed = errors.New("wire: dismissed by the server")

// RecvData is the client side's Recv: liveness probes are answered
// inline — a Ping is echoed as a Pong without waiting for whatever the
// caller does with data frames — and a Bye ends the stream with
// ErrDismissed.
func (fc *Conn) RecvData() (uint8, []byte, error) {
	for {
		t, p, err := fc.Recv()
		switch {
		case err != nil:
			return 0, nil, err
		case t == fc.p.Ping:
			if err := fc.Send(fc.p.Pong, p); err != nil {
				return 0, nil, err
			}
		case t == fc.p.Bye:
			return 0, nil, ErrDismissed
		default:
			return t, p, nil
		}
	}
}

// handToHeartbeat ends the handshake's read deadline: from here on
// liveness is the heartbeat monitor's job. Zeroing the field alone
// would leave the deadline already armed on the socket to fire on a
// perfectly healthy peer one handshake timeout after it joined.
func (fc *Conn) handToHeartbeat() {
	fc.readTimeout = 0
	fc.c.SetReadDeadline(time.Time{})
}

// Close closes the underlying connection, unblocking any Recv.
func (fc *Conn) Close() error { return fc.c.Close() }
