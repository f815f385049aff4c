package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// handshakeTimeout bounds how long an accepted connection may take to
// say hello (and complete the package's Joined step) before the server
// gives up on it.
const handshakeTimeout = 10 * time.Second

// writeTimeout bounds each frame write, on both ends, so a dead peer
// cannot block its sender.
const writeTimeout = 10 * time.Second

// ServerConfig parameterizes Listen.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// HeartbeatEvery is the ping cadence per peer (default 500ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout declares a peer dead when no pong arrived for
	// this long (default 5s).
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every accepted connection; tests
	// use it to interpose faults.NetFaultModel injectors or to grab
	// connections for forced kills.
	WrapConn func(net.Conn) net.Conn
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	return c
}

// Handler is the package half of a Server: what to say in the welcome,
// what to do with an admitted peer's frames, and what a death means.
// The funcs are called from the peer's connection goroutine (Dead also
// from whichever goroutine called Kill), so they synchronize their own
// state.
type Handler struct {
	// Welcome is appended to every welcome frame after the version and
	// the assigned peer id.
	Welcome []byte
	// Joined runs once the welcome is sent, with the handshake deadline
	// still armed: it may Recv further handshake frames from p.Conn
	// (fleet's register) and sets p.Data. A non-nil error rejects the
	// peer; after a nil return the server's read loop owns p.Conn.Recv.
	Joined func(p *Peer) error
	// Frame handles one frame from an admitted peer (pongs never reach
	// it). The payload is only valid until Frame returns. A non-nil
	// error is a protocol violation and kills the peer.
	Frame func(p *Peer, t uint8, payload []byte) error
	// Dead runs exactly once for every peer Joined accepted, when its
	// connection is lost for any reason (including server Close).
	Dead func(p *Peer, reason string)
}

// Peer is the server's handle on one connected client.
type Peer struct {
	// ID is the server-assigned id announced in the welcome frame.
	ID int
	// Conn is the peer's framed connection; Send is safe from any
	// goroutine.
	Conn *Conn
	// Data is the owning package's per-peer state, set in Joined.
	Data any

	srv      *Server
	lastPong atomic.Int64
	admitted atomic.Bool
	dead     atomic.Bool
}

// Dead reports whether the peer has been declared dead.
func (p *Peer) Dead() bool { return p.dead.Load() }

// LastPong is when the peer last answered a ping (its welcome counts
// as the first answer).
func (p *Peer) LastPong() time.Time { return time.Unix(0, p.lastPong.Load()) }

// Kill declares the peer dead for a reason the package found (a failed
// send, a missed step deadline). Like every death it closes the
// connection and runs Handler.Dead, at most once per peer.
func (p *Peer) Kill(reason string) { p.die(reason, false) }

func (p *Peer) die(reason string, byHeartbeat bool) {
	if !p.dead.CompareAndSwap(false, true) {
		return
	}
	s := p.srv
	p.Conn.Close() // unblocks the peer's reader
	s.p.Metrics.WorkersLost.Inc()
	if byHeartbeat {
		s.p.Metrics.HeartbeatTimeouts.Inc()
	}
	select {
	case <-s.done:
		// Shutdown teardown, not a failure: every reader dies when
		// Close force-closes its conn. Stay quiet so the log sink
		// (t.Logf in tests) is never touched during teardown.
	default:
		s.logf("worker %d lost: %s", p.ID, reason)
	}
	s.h.Dead(p, reason)
}

// Server accepts clients of one protocol and runs each connection's
// lifecycle: hello/welcome handshake, read loop, heartbeat monitor,
// exactly-once death, and a Close that joins every goroutine it
// started.
type Server struct {
	p   *Protocol
	cfg ServerConfig
	h   Handler
	ln  net.Listener

	done      chan struct{}
	closeOnce sync.Once
	nextID    atomic.Int64

	// Every accepted conn is tracked so Close can force it shut
	// (unblocking its reader), and every goroutine registers in wg so
	// Close can join them all. Without the join, a dying read loop could
	// still be calling Logf or a Handler func after Close returns — in
	// tests that means t.Logf after the test completed, a
	// scheduling-sensitive panic under -race.
	wg    sync.WaitGroup
	mu    sync.Mutex
	peers map[*Peer]struct{}
}

// Listen binds the server's address. No connection is accepted until
// Serve, so the caller can store the *Server where its Handler funcs
// will look for it.
func Listen(p *Protocol, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Addr, err)
	}
	return &Server{p: p, cfg: cfg, ln: ln, done: make(chan struct{}), peers: make(map[*Peer]struct{})}, nil
}

// Serve starts accepting clients on a background goroutine and returns.
func (s *Server) Serve(h Handler) {
	s.h = h
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Done is closed when Close begins.
func (s *Server) Done() <-chan struct{} { return s.done }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// acceptLoop admits TCP connections and runs each in its own
// goroutine. It exits when the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		p := &Peer{srv: s, Conn: NewConn(s.p, conn, writeTimeout, handshakeTimeout)}
		s.mu.Lock()
		select {
		case <-s.done:
			// Accepted in the instant Close began: its snapshot of the
			// peers (taken under mu, after closing done) may have missed
			// this one, so nobody else would close it.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.peers[p] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(p)
	}
}

// serveConn is one connection's goroutine: handshake, then the read
// loop until the connection dies.
func (s *Server) serveConn(p *Peer) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.peers, p)
		s.mu.Unlock()
	}()
	if !s.handshake(p) {
		p.Conn.Close()
		return
	}
	s.wg.Add(1) // safe: our own entry keeps wg > 0
	go s.heartbeatLoop(p)
	for {
		t, payload, err := p.Conn.Recv()
		if err != nil {
			p.die("read: "+err.Error(), false)
			return
		}
		if t == s.p.Pong {
			p.lastPong.Store(time.Now().UnixNano())
			continue
		}
		if err := s.h.Frame(p, t, payload); err != nil {
			p.die(err.Error(), false)
			return
		}
	}
}

// handshake validates a connecting client's hello, assigns its id,
// welcomes it, and runs the package's Joined step. On success the
// read deadline that bounded all of that is cleared and liveness
// passes to the heartbeat monitor.
func (s *Server) handshake(p *Peer) bool {
	t, payload, err := p.Conn.Recv()
	if err != nil || t != s.p.Hello {
		return false
	}
	d := Dec{B: payload}
	ver := d.U32()
	if d.Err() != nil || ver != s.p.Version {
		s.logf("rejecting worker speaking protocol %d (want %d)", ver, s.p.Version)
		return false
	}
	p.ID = int(s.nextID.Add(1))
	var e Enc
	e.U32(s.p.Version)
	e.U32(uint32(p.ID))
	e.B = append(e.B, s.h.Welcome...)
	if p.Conn.Send(s.p.Welcome, e.B) != nil {
		return false
	}
	p.lastPong.Store(time.Now().UnixNano())
	if err := s.h.Joined(p); err != nil {
		s.logf("worker %d: rejected: %v", p.ID, err)
		return false
	}
	p.Conn.handToHeartbeat()
	p.admitted.Store(true)
	return true
}

// heartbeatLoop pings the peer and declares it dead when pongs stop.
func (s *Server) heartbeatLoop(p *Peer) {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.HeartbeatEvery)
	defer tick.Stop()
	var ping [8]byte
	for {
		select {
		case <-tick.C:
			if p.Dead() {
				return
			}
			if since := time.Since(p.LastPong()); since > s.cfg.HeartbeatTimeout {
				p.die(fmt.Sprintf("heartbeat timeout (%s since last pong)", since.Round(time.Millisecond)), true)
				return
			}
			binary.LittleEndian.PutUint64(ping[:], uint64(time.Now().UnixNano()))
			if err := p.Conn.Send(s.p.Ping, ping[:]); err != nil {
				p.die("ping: "+err.Error(), false)
				return
			}
		case <-s.done:
			return
		}
	}
}

// Close stops the listener, dismisses every admitted peer (Bye), and
// force-closes every connection — including ones still mid-handshake.
// It does not return until every goroutine the server started
// (accept loop, handshakes, readers, heartbeat monitors) has exited
// and every Handler.Dead has run, so nothing touches the owning
// package — or its log sink — afterwards. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.ln.Close()
		s.mu.Lock()
		peers := make([]*Peer, 0, len(s.peers))
		for p := range s.peers {
			peers = append(peers, p)
		}
		s.mu.Unlock()
		for _, p := range peers {
			if p.admitted.Load() && !p.Dead() {
				p.Conn.Send(s.p.Bye, nil) // best effort; the close below is what counts
			}
			p.Conn.Close()
		}
		s.wg.Wait()
	})
}
