package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/wiretest"
)

func TestMain(m *testing.M) { wiretest.Main(m) }

// The two protocols the repository speaks, restated from
// dist/protocol.go and fleet/protocol.go; the golden frames (which
// those packages' own tests check against their real values) keep the
// restatement honest.
var (
	dstfr = &Protocol{
		Magic: [8]byte{'D', 'S', 'T', 'F', 'R', 'v', '1', '\n'}, MaxPayload: 1 << 30, Version: 2,
		Hello: 1, Welcome: 2, Ping: 9, Pong: 10, Bye: 14,
		Metrics: NewMetrics("dist", obs.Default().Histogram("dist_frame_size_bytes",
			"Size distribution of sent protocol frames.", obs.ByteBuckets)),
	}
	fltfr = &Protocol{
		Magic: [8]byte{'F', 'L', 'T', 'F', 'R', 'v', '1', '\n'}, MaxPayload: 1 << 26, Version: 1,
		Hello: 1, Welcome: 2, Ping: 7, Pong: 8, Bye: 9,
		Metrics: NewMetrics("fleet", nil),
	}
	codecs = []struct {
		name string
		p    *Protocol
	}{{"dstfrv1", dstfr}, {"fltfrv1", fltfr}}
)

// A frame type the lifecycle does not interpret in either protocol.
const typeData uint8 = 4

// bufConn is an in-memory net.Conn stub: frames written via Send land
// in the buffer and Recv reads them back, all on one goroutine.
type bufConn struct{ bytes.Buffer }

func (c *bufConn) Close() error                       { return nil }
func (c *bufConn) LocalAddr() net.Addr                { return nil }
func (c *bufConn) RemoteAddr() net.Addr               { return nil }
func (c *bufConn) SetDeadline(t time.Time) error      { return nil }
func (c *bufConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *bufConn) SetWriteDeadline(t time.Time) error { return nil }

// reader returns a Conn that will Recv the given bytes and then EOF.
func reader(p *Protocol, stream []byte) *Conn {
	c := &bufConn{}
	c.Write(stream)
	return NewConn(p, c, 0, 0)
}

// frameErrs snapshots the protocol's per-reason error counters.
func frameErrs(p *Protocol) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range []string{"io", "magic", "seq", "length", "crc"} {
		out[r] = p.Metrics.FrameErrors(r).Value()
	}
	return out
}

// wantOnly asserts exactly one error was counted since before, under
// the given reason.
func wantOnly(t *testing.T, p *Protocol, before map[string]float64, reason string) {
	t.Helper()
	for r, v := range frameErrs(p) {
		want := before[r]
		if r == reason {
			want++
		}
		if v != want {
			t.Errorf("%s_frame_errors_total{reason=%q} moved by %v, want %v", p.Metrics.prefix, r, v-before[r], want-before[r])
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{0xAB}, 1<<15)}
	types := []uint8{1, 7, typeData}
	for _, cd := range codecs {
		t.Run(cd.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			fa, fb := NewConn(cd.p, a, time.Second, time.Second), NewConn(cd.p, b, time.Second, time.Second)
			m := cd.p.Metrics
			sent, recv := m.FramesSent.Value(), m.FramesRecv.Value()
			bytesSent, bytesRecv := m.BytesSent.Value(), m.BytesRecv.Value()
			sentAll := make(chan struct{})
			go func() {
				defer close(sentAll)
				for i, p := range payloads {
					if err := fa.Send(types[i], p); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
			}()
			total := 0
			for i, want := range payloads {
				ft, p, err := fb.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if ft != types[i] || !bytes.Equal(p, want) {
					t.Fatalf("frame %d: type %d, %d bytes; want type %d, %d bytes", i, ft, len(p), types[i], len(want))
				}
				total += HeaderLen + len(want) + 4
			}
			<-sentAll
			if m.FramesSent.Value()-sent != 3 || m.FramesRecv.Value()-recv != 3 {
				t.Errorf("frame counters moved by %v sent, %v received, want 3 and 3", m.FramesSent.Value()-sent, m.FramesRecv.Value()-recv)
			}
			if m.BytesSent.Value()-bytesSent != float64(total) || m.BytesRecv.Value()-bytesRecv != float64(total) {
				t.Errorf("byte counters moved by %v sent, %v received, want %d", m.BytesSent.Value()-bytesSent, m.BytesRecv.Value()-bytesRecv, total)
			}
		})
	}
}

// TestFrameTruncationEveryBoundary cuts a three-frame stream at every
// byte: the frames wholly before the cut are delivered, and the cut
// itself is always an io error — never a panic, never a partial frame.
func TestFrameTruncationEveryBoundary(t *testing.T) {
	for _, cd := range codecs {
		t.Run(cd.name, func(t *testing.T) {
			var stream []byte
			var ends []int
			for seq, payload := range [][]byte{[]byte("first"), nil, []byte("third frame")} {
				stream = append(stream, cd.p.Frame(nil, uint64(seq), typeData, payload)...)
				ends = append(ends, len(stream))
			}
			for cut := 0; cut < len(stream); cut++ {
				whole := 0
				for _, e := range ends {
					if e <= cut {
						whole++
					}
				}
				fc := reader(cd.p, stream[:cut])
				for i := 0; i < whole; i++ {
					if _, _, err := fc.Recv(); err != nil {
						t.Fatalf("cut %d: whole frame %d refused: %v", cut, i, err)
					}
				}
				before := frameErrs(cd.p)
				_, _, err := fc.Recv()
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("cut %d: got %v, want an EOF", cut, err)
				}
				wantOnly(t, cd.p, before, "io")
			}
		})
	}
}

// TestFrameValidation feeds damaged streams to Recv and checks each
// damage class is detected and counted under its own reason.
func TestFrameValidation(t *testing.T) {
	payload := []byte("payload-bytes")
	for _, cd := range codecs {
		good := cd.p.Frame(nil, 0, typeData, payload)
		flip := func(off int) func() []byte {
			return func() []byte {
				b := append([]byte(nil), good...)
				b[off] ^= 0x40
				return b
			}
		}
		cases := []struct {
			name, reason, mention string
			stream                func() []byte
		}{
			{"magic clobbered", "magic", "magic", flip(2)},
			{"seq clobbered", "seq", "seq", flip(9)},
			{"payload bit flip", "crc", "CRC", flip(HeaderLen + 3)},
			{"crc bit flip", "crc", "CRC", flip(len(good) - 1)},
			{"type bit flip", "crc", "CRC", flip(16)},
			{"frame dropped", "seq", "frame lost", func() []byte {
				return cd.p.Frame(nil, 1, typeData, payload) // seq 1 arrives where 0 was expected
			}},
			{"frame truncated, next one follows", "crc", "CRC", func() []byte {
				// Payload and CRC are filled from the next frame's head.
				return append(append([]byte(nil), good[:HeaderLen+4]...), cd.p.Frame(nil, 1, typeData, payload)...)
			}},
			{"header truncated, next one follows", "seq", "seq", func() []byte {
				// The seq field is completed by the next frame's magic.
				return append(append([]byte(nil), good[:10]...), cd.p.Frame(nil, 1, typeData, payload)...)
			}},
			{"length over cap", "length", "exceeds cap", func() []byte {
				b := append([]byte(nil), good[:HeaderLen]...)
				binary.LittleEndian.PutUint32(b[17:], cd.p.MaxPayload+1)
				return b
			}},
			{"truncated mid-payload", "io", "EOF", func() []byte { return good[:HeaderLen+4] }},
		}
		for _, tc := range cases {
			t.Run(cd.name+"/"+tc.name, func(t *testing.T) {
				fc := reader(cd.p, tc.stream())
				before := frameErrs(cd.p)
				_, _, err := fc.Recv()
				if err == nil {
					t.Fatal("damaged frame accepted")
				}
				if !strings.Contains(err.Error(), tc.mention) {
					t.Errorf("error %q does not mention %q", err, tc.mention)
				}
				wantOnly(t, cd.p, before, tc.reason)
				if tc.reason == "length" && cap(fc.rbuf) != 0 {
					t.Errorf("over-cap length allocated %d bytes before being refused", cap(fc.rbuf))
				}
			})
		}
	}
}

// TestFramePayloadCapPerCodec: the caps differ (1 GiB for whole-model
// state frames, 64 MiB for single-image predicts), so a length between
// them passes dist's check and fails fleet's.
func TestFramePayloadCapPerCodec(t *testing.T) {
	if dstfr.MaxPayload != 1<<30 || fltfr.MaxPayload != 1<<26 {
		t.Fatalf("caps %d / %d, want 1 GiB / 64 MiB", dstfr.MaxPayload, fltfr.MaxPayload)
	}
	for _, cd := range codecs {
		hdr := cd.p.Frame(nil, 0, typeData, nil)[:HeaderLen]
		binary.LittleEndian.PutUint32(hdr[17:], 1<<26+1)
		before := frameErrs(cd.p)
		if _, _, err := reader(cd.p, hdr).Recv(); err == nil {
			t.Fatalf("%s: header with no body accepted", cd.name)
		}
		reason := "io" // within the cap: refused only because the body never arrives
		if cd.p == fltfr {
			reason = "length"
		}
		wantOnly(t, cd.p, before, reason)
	}
}

func TestFrameConcurrentSenders(t *testing.T) {
	for _, cd := range codecs {
		t.Run(cd.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			fa, fb := NewConn(cd.p, a, time.Second, time.Second), NewConn(cd.p, b, time.Second, time.Second)
			const n = 50
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var e Enc
					e.U64(uint64(i))
					fa.Send(typeData, e.B)
				}(i)
			}
			seen := make(map[uint64]bool, n)
			for i := 0; i < n; i++ {
				ft, p, err := fb.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				d := Dec{B: p}
				v := d.U64()
				if ft != typeData || d.Err() != nil || seen[v] {
					t.Fatalf("frame %d: type %d value %d (dup=%v, err=%v)", i, ft, v, seen[v], d.Err())
				}
				seen[v] = true
			}
			wg.Wait()
		})
	}
}

// TestGoldenFrames checks the parent commit's bytes field by field
// against the "Frame layout" table of docs/wire-frame.md (without going
// through the codec), then requires the codec to accept them and to
// re-encode them identically.
func TestGoldenFrames(t *testing.T) {
	golden := wiretest.Golden(t)
	cases := []struct {
		name    string
		p       *Protocol
		magic   string
		seq     uint64
		typ     uint8
		payload string // hex-free: the decoded fields are checked below
	}{
		{"dstfrv1/hello", dstfr, "DSTFRv1\n", 0, 1, "\x04\x00\x00\x00"},
		{"dstfrv1/slice_aborted", dstfr, "DSTFRv1\n", 3, 6,
			"\x2a\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00" + "\x05\x00\x00\x00" + "\x00" + "\x0c\x00\x00\x00sync aborted"},
		{"dstfrv1/bye", dstfr, "DSTFRv1\n", 5, 14, ""},
		{"dstfrv1/slice", dstfr, "DSTFRv1\n", 0, 4,
			"\x2a\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00" + "\x01\x00\x00\x00" + "\x02\x00\x00\x00" +
				"\x11\x00\x00\x00" + "\x09\x00\x00\x00" +
				"\x08\x00\x00\x00" + "\x09\x00\x00\x00" + "\x00\x00\x00\x00" + "\x01\x00\x00\x00" + "\x02\x00\x00\x00" +
				"\x03\x00\x00\x00" + "\x04\x00\x00\x00" + "\x05\x00\x00\x00" + "\x06\x00\x00\x00" +
				"\x09\x00\x00\x00" + "\x00\x00\x00\x40" + "\x00\x00\x10\x40" + "\x00\x00\x20\x40" + "\x00\x00\x30\x40" +
				"\x00\x00\x40\x40" + "\x00\x00\x50\x40" + "\x00\x00\x60\x40" + "\x00\x00\x70\x40" + "\x00\x00\x80\x40"},
		{"dstfrv1/slice_result", dstfr, "DSTFRv1\n", 0, 5,
			"\x2a\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00" + "\x01\x00\x00\x00" + "\x02\x00\x00\x00" +
				"\x00\x00\x00\x00\x00\x00\xf8\x3f" + "\x01\x00\x00\x00" + "\x00\x00\x80\xbf" + "\x00\x00\x00\x40" + "\x01" +
				"\x02\x00\x00\x00" + "\x00\x00\x80\x3e" + "\x00\x00\x00\xbf" +
				"\x00\x00\x00\x00\x00\x00\xe8\x3f" + "\x01\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00" +
				"\x02\x00\x00\x00" + "\x00\x00\x00\x3e" + "\x00\x00\x80\x3f"},
		{"dstfrv1/bn_reduce", dstfr, "DSTFRv1\n", 0, 11,
			"\x07\x00\x00\x00" + "\x02\x00\x00\x00" + "\x01" + "\x01\x00\x00\x00" + "\x06\x00\x00\x00" +
				"\x00\x00\x00\x00\x00\x00\xe0\x3f" + "\x00\x00\x00\x00\x00\x00\xf4\xbf" + "\x00\x00\x00\x00\x00\x00\x18\x40" +
				"\x00\x00\x00\x00\x00\x00\xd0\x3f" + "\x00\x00\x00\x00\x00\x00\xf0\x3f" + "\x00\x00\x00\x00\x00\x00\x00\x40"},
		{"dstfrv1/bn_result", dstfr, "DSTFRv1\n", 0, 12,
			"\x07\x00\x00\x00" + "\x02\x00\x00\x00" + "\x01" + "\x03\x00\x00\x00" +
				"\x00\x00\x00\x00\x00\x00\xfc\x3f" + "\x00\x00\x00\x00\x00\x00\xfc\x3f" + "\x00\x00\x00\x00\x00\x00\x28\x40"},
		{"fltfrv1/hello", fltfr, "FLTFRv1\n", 0, 1, "\x01\x00\x00\x00"},
		{"fltfrv1/error", fltfr, "FLTFRv1\n", 2, 6,
			"\x2a\x00\x00\x00\x00\x00\x00\x00" + "\x01" + "\x0a\x00\x00\x00queue full"},
		{"fltfrv1/bye", fltfr, "FLTFRv1\n", 4, 9, ""},
	}
	if len(golden) != len(cases) {
		t.Errorf("%d golden frames on disk, %d checked here", len(golden), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := golden[tc.name]
			n := len(tc.payload)
			if len(b) != 21+n+4 {
				t.Fatalf("frame is %d bytes, want 21+%d+4", len(b), n)
			}
			if string(b[0:8]) != tc.magic {
				t.Errorf("magic [0,8) = %q, want %q", b[0:8], tc.magic)
			}
			if got := binary.LittleEndian.Uint64(b[8:16]); got != tc.seq {
				t.Errorf("seq [8,16) = %d, want %d", got, tc.seq)
			}
			if b[16] != tc.typ {
				t.Errorf("type [16] = %d, want %d", b[16], tc.typ)
			}
			if got := binary.LittleEndian.Uint32(b[17:21]); got != uint32(n) {
				t.Errorf("length [17,21) = %d, want %d", got, n)
			}
			if string(b[21:21+n]) != tc.payload {
				t.Errorf("payload [21,%d) = %x, want %x", 21+n, b[21:21+n], tc.payload)
			}
			if got, want := binary.LittleEndian.Uint32(b[21+n:]), crc32.ChecksumIEEE(b[:21+n]); got != want {
				t.Errorf("crc = %08x, want CRC-32/IEEE of the preceding bytes %08x", got, want)
			}

			fc := reader(tc.p, b)
			fc.rseq = tc.seq
			ft, p, err := fc.Recv()
			if err != nil || ft != tc.typ || string(p) != tc.payload {
				t.Fatalf("Recv = type %d, %x, %v", ft, p, err)
			}
			if again := tc.p.Frame(nil, tc.seq, ft, p); !bytes.Equal(again, b) {
				t.Errorf("re-encoded\n got %x\nwant %x", again, b)
			}
		})
	}
}

// TestRecvDataAnswersLiveness: the client-side receive echoes pings
// inline, hands data frames through, and turns Bye into ErrDismissed.
func TestRecvDataAnswersLiveness(t *testing.T) {
	for _, cd := range codecs {
		t.Run(cd.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			server, client := NewConn(cd.p, a, time.Second, time.Second), NewConn(cd.p, b, time.Second, time.Second)
			go func() {
				server.Send(cd.p.Ping, []byte("nonce-01"))
				server.Send(typeData, []byte("work"))
				server.Send(cd.p.Bye, nil)
			}()
			got := make(chan string, 1)
			go func() {
				ft, p, _ := server.Recv()
				got <- string(append([]byte{ft}, p...))
			}()
			if ft, p, err := client.RecvData(); err != nil || ft != typeData || string(p) != "work" {
				t.Fatalf("RecvData = type %d, %q, %v; want the data frame", ft, p, err)
			}
			if pong := <-got; pong != string(cd.p.Pong)+"nonce-01" {
				t.Errorf("server received %q, want a pong echoing the ping payload", pong)
			}
			if _, _, err := client.RecvData(); !errors.Is(err, ErrDismissed) {
				t.Errorf("after Bye: %v, want ErrDismissed", err)
			}
		})
	}
}
