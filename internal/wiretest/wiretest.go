// Package wiretest holds the test support shared by the packages that
// speak internal/wire: the goroutine-leak gate their TestMains run, the
// loader for the golden frames that pin both wire formats, and the
// read-deadline recorder behind the handshake-deadline regression
// tests.
package wiretest

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Main is a TestMain body: it runs the package's tests and then fails
// the binary if any goroutine is still running wire, dist or fleet
// code. Every Close/Run in those packages promises to join what it
// started; this is where the promise is checked for the whole suite
// rather than test by test.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines still in internal/{wire,dist,fleet} after the tests finished:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine other than the caller has a
// wire/dist/fleet frame on its stack, returning the offenders' stacks
// if some remain at the deadline. Polling (not one look) because a
// goroutine that was just told to stop may not have been scheduled yet.
func leaked(within time.Duration) string {
	deadline := time.Now().Add(within)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var bad []string
		// The first stack is the calling goroutine: TestMain itself.
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			for _, pkg := range []string{"wire", "dist", "fleet"} {
				if strings.Contains(g, "/internal/"+pkg+".") {
					bad = append(bad, g)
					break
				}
			}
		}
		if len(bad) == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return strings.Join(bad, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Golden loads internal/wire/testdata/golden_frames.txt: frame name
// ("dstfrv1/hello") to the exact bytes the pre-wire encoders produced.
func Golden(t testing.TB) map[string][]byte {
	t.Helper()
	_, self, _, _ := runtime.Caller(0)
	f, err := os.Open(filepath.Join(filepath.Dir(self), "..", "wire", "testdata", "golden_frames.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexBytes, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Deadlines records the read deadlines a server arms on its accepted
// connections (pass Wrap as the server's WrapConn). So that a test can
// outlive the 10 s handshake window without sleeping through it, every
// deadline is applied to the real socket 20x sooner than requested.
type Deadlines struct {
	mu      sync.Mutex
	last    time.Time // as the server passed it
	elapsed time.Time // when the latest armed deadline fires on the real socket
}

// Wrap is the WrapConn hook.
func (d *Deadlines) Wrap(c net.Conn) net.Conn { return &deadlineConn{Conn: c, d: d} }

// AwaitWindow returns once the handshake window has elapsed on the
// real socket. It fails t unless, before that, the last SetReadDeadline
// the server issued was the zero time — the deadline was cleared, not
// left armed.
func (d *Deadlines) AwaitWindow(t testing.TB) {
	t.Helper()
	for {
		d.mu.Lock()
		last, elapsed := d.last, d.elapsed
		d.mu.Unlock()
		if elapsed.IsZero() {
			t.Fatal("server never armed a handshake read deadline")
		}
		if last.IsZero() {
			time.Sleep(time.Until(elapsed) + 50*time.Millisecond)
			return
		}
		if time.Now().After(elapsed) {
			t.Fatalf("last SetReadDeadline after admission is %v, want the zero time (deadline left armed)", last)
		}
		time.Sleep(time.Millisecond)
	}
}

type deadlineConn struct {
	net.Conn
	d *Deadlines
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	applied := t
	c.d.mu.Lock()
	c.d.last = t
	if !t.IsZero() {
		applied = time.Now().Add(time.Until(t) / 20)
		c.d.elapsed = applied
	}
	c.d.mu.Unlock()
	return c.Conn.SetReadDeadline(applied)
}
