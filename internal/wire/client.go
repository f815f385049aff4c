package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// ClientConfig parameterizes RunClient.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Dial is the backoff policy for failed dials and reconnects; the
	// client redials forever (a restarted server picks it back up).
	Dial Backoff
	// HeartbeatTimeout is the read-idle limit: the server pings well
	// inside it, so a read stalled this long means the connection is
	// dead (default 15s).
	HeartbeatTimeout time.Duration
	// Seed randomizes backoff jitter.
	Seed int64
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every dialed connection; tests use
	// it to interpose fault injectors and targeted kills.
	WrapConn func(net.Conn) net.Conn
}

// dialTimeout bounds one dial.
const dialTimeout = 3 * time.Second

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	return c
}

func (c ClientConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Session is the package's body for one established connection. id is
// the server-assigned peer id and welcome is positioned at the
// package's part of the welcome payload (decode it, and check its Err,
// before the first receive). The session reads with c.RecvData and
// returns when the stream ends; RecvData's ErrDismissed must be
// passed through.
type Session func(ctx context.Context, c *Conn, id int, welcome *Dec) error

// RunClient joins the server at cfg.Addr and runs session over the
// connection until it is dismissed (Bye → nil return) or the context
// is cancelled. A failed dial, or connection loss at any other point,
// re-enters the dial loop with exponential backoff; the package's
// handshake re-establishes all state on readmission, so a reconnect is
// always safe.
func RunClient(ctx context.Context, p *Protocol, cfg ClientConfig, session Session) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
		if err != nil {
			fails++
			p.Metrics.DialRetries.Inc()
			cfg.logf("dial %s failed (attempt %d): %v", cfg.Addr, fails, err)
			if !cfg.Dial.Sleep(ctx, fails-1, rng) {
				return ctx.Err()
			}
			continue
		}
		fails = 0
		if cfg.WrapConn != nil {
			conn = cfg.WrapConn(conn)
		}
		err = runSession(ctx, NewConn(p, conn, writeTimeout, cfg.HeartbeatTimeout), session)
		if errors.Is(err, ErrDismissed) {
			cfg.logf("dismissed by %s", cfg.Addr)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p.Metrics.Reconnects.Inc()
		cfg.logf("session ended: %v; reconnecting", err)
		if !cfg.Dial.Sleep(ctx, 0, rng) {
			return ctx.Err()
		}
	}
}

// runSession runs one connection's lifetime: hello/welcome, then the
// package's session body.
func runSession(ctx context.Context, fc *Conn, session Session) error {
	defer fc.Close()
	// Closing the connection is what makes cancellation prompt: a
	// cancelled client unblocks even mid-read or mid-barrier.
	stop := context.AfterFunc(ctx, func() { fc.Close() })
	defer stop()
	p := fc.p
	var e Enc
	e.U32(p.Version)
	if err := fc.Send(p.Hello, e.B); err != nil {
		return err
	}
	t, payload, err := fc.Recv()
	if err != nil {
		return err
	}
	if t != p.Welcome {
		return fmt.Errorf("wire: expected welcome, got %s", p.TypeName(t))
	}
	d := Dec{B: payload}
	if ver := d.U32(); ver != p.Version {
		return fmt.Errorf("wire: server speaks protocol %d, want %d", ver, p.Version)
	}
	id := int(d.U32())
	if d.Failed() {
		return d.Err()
	}
	return session(ctx, fc, id, &d)
}
