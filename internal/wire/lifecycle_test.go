package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/faults"
	"github.com/appmult/retrain/internal/wiretest"
)

// echoServer answers every data frame with the same payload and counts
// joins and deaths per peer id.
type echoServer struct {
	*Server
	mu     sync.Mutex
	joined []int
	deaths map[int]int
	logs   []string
}

func startEcho(t *testing.T, p *Protocol, cfg ServerConfig) *echoServer {
	t.Helper()
	es := &echoServer{deaths: make(map[int]int)}
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = func(format string, args ...any) {
		es.mu.Lock()
		es.logs = append(es.logs, fmt.Sprintf(format, args...))
		es.mu.Unlock()
	}
	srv, err := Listen(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	es.Server = srv
	srv.Serve(Handler{
		Welcome: []byte("job-7"),
		Joined: func(p *Peer) error {
			es.mu.Lock()
			es.joined = append(es.joined, p.ID)
			es.mu.Unlock()
			return nil
		},
		Frame: func(p *Peer, ft uint8, payload []byte) error {
			if ft != typeData {
				return fmt.Errorf("unexpected frame type %d", ft)
			}
			return p.Conn.Send(typeData, payload)
		},
		Dead: func(p *Peer, reason string) {
			es.mu.Lock()
			es.deaths[p.ID]++
			es.mu.Unlock()
		},
	})
	t.Cleanup(srv.Close)
	return es
}

func (es *echoServer) snapshot() (joined []int, deaths map[int]int, logs string) {
	es.mu.Lock()
	defer es.mu.Unlock()
	deaths = make(map[int]int)
	for id, n := range es.deaths {
		deaths[id] = n
	}
	return append([]int(nil), es.joined...), deaths, strings.Join(es.logs, "\n")
}

// runClient starts RunClient in the background; the returned channel
// yields its result.
func runClient(ctx context.Context, p *Protocol, cfg ClientConfig, session Session) <-chan error {
	cfg.Dial = Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: -1}
	done := make(chan error, 1)
	go func() { done <- RunClient(ctx, p, cfg, session) }()
	return done
}

func await(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// TestHandshakeEchoDismiss is the lifecycle's happy path under both
// protocols' type numbers: welcome payload and id reach the session,
// data frames are dispatched to the handler, heartbeats flow under the
// data, and Close dismisses the client (nil return, no redial) after
// reporting its death exactly once.
func TestHandshakeEchoDismiss(t *testing.T) {
	for _, cd := range codecs {
		t.Run(cd.name, func(t *testing.T) {
			es := startEcho(t, cd.p, ServerConfig{HeartbeatEvery: 5 * time.Millisecond})
			echoed := make(chan error, 1)
			result := runClient(context.Background(), cd.p, ClientConfig{Addr: es.Addr()},
				func(ctx context.Context, c *Conn, id int, welcome *Dec) error {
					if job := string(welcome.take(5)); id != 1 || job != "job-7" || welcome.Err() != nil {
						return fmt.Errorf("welcomed as id %d with %q (%v)", id, job, welcome.Err())
					}
					for i := 0; i < 20; i++ { // spans several heartbeats
						msg := fmt.Sprintf("msg %d", i)
						if err := c.Send(typeData, []byte(msg)); err != nil {
							return err
						}
						if ft, p, err := c.RecvData(); err != nil || ft != typeData || string(p) != msg {
							return fmt.Errorf("echo %d: type %d, %q, %v", i, ft, p, err)
						}
						time.Sleep(time.Millisecond)
					}
					echoed <- nil
					_, _, err := c.RecvData() // parks until the server says Bye
					return err
				})
			select {
			case <-echoed:
			case err := <-result:
				t.Fatalf("client gave up before the echoes finished: %v", err)
			}
			es.Close()
			if err := await(t, "the dismissed client", result); err != nil {
				t.Fatalf("dismissed client returned %v, want nil", err)
			}
			if joined, deaths, _ := es.snapshot(); len(joined) != 1 || deaths[1] != 1 {
				t.Errorf("joined %v, deaths %v; want one join and exactly one death for it", joined, deaths)
			}
		})
	}
}

// TestHandshakeClearsArmedReadDeadline: admission hands liveness to the
// heartbeat monitor by clearing the socket's read deadline, so a peer
// that says nothing but pongs is still connected after the handshake
// window has elapsed.
func TestHandshakeClearsArmedReadDeadline(t *testing.T) {
	var dl wiretest.Deadlines
	es := startEcho(t, fltfr, ServerConfig{WrapConn: dl.Wrap})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lost := fltfr.Metrics.WorkersLost.Value()
	joinedCh := make(chan struct{})
	result := runClient(ctx, fltfr, ClientConfig{Addr: es.Addr()},
		func(ctx context.Context, c *Conn, id int, welcome *Dec) error {
			close(joinedCh)
			_, _, err := c.RecvData()
			return err
		})
	<-joinedCh
	dl.AwaitWindow(t)
	if joined, deaths, logs := es.snapshot(); len(joined) != 1 || len(deaths) != 0 || fltfr.Metrics.WorkersLost.Value() != lost {
		t.Errorf("after the handshake window: joined %v, deaths %v, log:\n%s", joined, deaths, logs)
	}
	cancel()
	if err := await(t, "the cancelled client", result); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled client returned %v", err)
	}
}

// TestVersionMismatchRejected: both ends refuse the other's version,
// and the server's log names the version it was actually offered.
func TestVersionMismatchRejected(t *testing.T) {
	es := startEcho(t, fltfr, ServerConfig{})
	v2 := *fltfr
	v2.Version = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	result := runClient(ctx, &v2, ClientConfig{Addr: es.Addr()},
		func(ctx context.Context, c *Conn, id int, welcome *Dec) error {
			t.Error("session ran against a server of another version")
			return ErrDismissed
		})
	deadline := time.Now().Add(5 * time.Second)
	for {
		joined, _, logs := es.snapshot()
		if len(joined) != 0 {
			t.Fatalf("version-2 client joined as %v", joined)
		}
		if strings.Contains(logs, "rejecting worker speaking protocol 2 (want 1)") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rejection naming the offered version in the log:\n%s", logs)
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // the rejected client redials forever
	if err := await(t, "the rejected client", result); !errors.Is(err, context.Canceled) {
		t.Errorf("rejected client returned %v, want context.Canceled", err)
	}
}

// TestCloseJoinsMidHandshake: a connection that never says hello is
// force-closed by Close rather than waited out.
func TestCloseJoinsMidHandshake(t *testing.T) {
	es := startEcho(t, dstfr, ServerConfig{})
	conn, err := net.Dial("tcp", es.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	es.Close()
	if d := time.Since(start); d > handshakeTimeout/2 {
		t.Errorf("Close took %s with a silent connection pending", d)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("silent connection still open after Close")
	}
}

// oneFault applies a rate-1 fault model to exactly one write — the
// first after arm() — and passes every other write through.
type oneFault struct {
	net.Conn
	faulty *faults.FaultyConn
	armed  atomic.Bool
}

func (c *oneFault) Write(b []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		return c.faulty.Write(b)
	}
	return c.Conn.Write(b)
}

// TestFaultRecovery drives each detectable faults.NetFaultModel fault
// through a live server/client pair: one frame of the first session is
// dropped, truncated or corrupted in flight. The server must detect it
// at the frame layer, report that peer's death exactly once, and the
// client must redial into a working second session.
func TestFaultRecovery(t *testing.T) {
	models := map[string]faults.NetFaultModel{
		"drop":     {DropRate: 1, Seed: 3},
		"truncate": {TruncateRate: 1, Seed: 3},
		"corrupt":  {CorruptRate: 1, Seed: 3},
	}
	for _, cd := range codecs {
		for name, model := range models {
			t.Run(cd.name+"/"+name, func(t *testing.T) {
				es := startEcho(t, cd.p, ServerConfig{})
				m := cd.p.Metrics
				reconnects := m.Reconnects.Value()
				errsBefore := frameErrs(cd.p)
				var first atomic.Pointer[oneFault]
				var sessions atomic.Int32
				recovered := make(chan struct{})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				result := runClient(ctx, cd.p, ClientConfig{
					Addr: es.Addr(),
					WrapConn: func(c net.Conn) net.Conn {
						of := &oneFault{Conn: c, faulty: model.Wrap(c)}
						first.CompareAndSwap(nil, of)
						return of
					},
				}, func(ctx context.Context, c *Conn, id int, welcome *Dec) error {
					if sessions.Add(1) == 1 {
						first.Load().armed.Store(true) // the next frame is the casualty
					}
					// Two frames back to back: if the first is lost whole, the
					// second is what lets the server notice.
					for _, msg := range []string{"first", "second"} {
						if err := c.Send(typeData, []byte(msg)); err != nil {
							return err
						}
					}
					for _, msg := range []string{"first", "second"} {
						if _, p, err := c.RecvData(); err != nil || string(p) != msg {
							return fmt.Errorf("echo of %q: %q, %v", msg, p, err)
						}
					}
					close(recovered)
					_, _, err := c.RecvData()
					return err
				})
				select {
				case <-recovered:
				case err := <-result:
					t.Fatalf("client gave up: %v", err)
				case <-time.After(10 * time.Second):
					t.Fatal("no working session after the fault")
				}
				if n := sessions.Load(); n != 2 {
					t.Errorf("%d sessions, want the faulted one and one redial", n)
				}
				if got := m.Reconnects.Value() - reconnects; got != 1 {
					t.Errorf("%s_worker_reconnects_total moved by %v, want 1", m.prefix, got)
				}
				joined, deaths, logs := es.snapshot()
				if len(joined) != 2 || deaths[joined[0]] != 1 || deaths[joined[1]] != 0 {
					t.Errorf("joined %v, deaths %v; want the first peer dead exactly once and the second alive\n%s", joined, deaths, logs)
				}
				detected := 0.0
				for reason, v := range frameErrs(cd.p) {
					if reason != "io" { // io also counts the client's own dead socket
						detected += v - errsBefore[reason]
					}
				}
				if detected != 1 {
					t.Errorf("frame validation caught %v faults, want 1 (log:\n%s)", detected, logs)
				}
				if injected := first.Load().faulty.InjectedTotal(); injected != 1 {
					t.Errorf("injector fired %d times, want 1", injected)
				}
				cancel()
				await(t, "the cancelled client", result)
			})
		}
	}
}
