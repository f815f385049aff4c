package faults

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// NetFaultModel is a reproducible network-fault distribution applied
// to a connection's writes. The distributed frame protocol
// (internal/dist) issues exactly one Write per frame, so each rate is
// effectively a per-frame fault probability. All four faults are of
// the detectable kind: a dropped or truncated frame breaks the
// receiver's sequence/magic expectations, a corrupted frame fails its
// CRC32, and a delayed frame exercises the heartbeat timeout — so an
// injected run must either recover through the protocol's
// teardown-and-resync path or fail loudly, never silently diverge.
type NetFaultModel struct {
	// DropRate is the probability a frame write is swallowed whole
	// (claimed successful, never sent).
	DropRate float64
	// CorruptRate is the probability a single bit of the frame is
	// flipped before sending.
	CorruptRate float64
	// TruncateRate is the probability only a prefix of the frame is
	// sent (the write still claims full success, so the sender keeps
	// going until the receiver kills the connection).
	TruncateRate float64
	// DelayRate is the probability the write is stalled by Delay
	// before being sent intact.
	DelayRate float64
	// Delay is the stall duration for delayed writes.
	Delay time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64
}

// Wrap returns conn with the model's write-side faults applied. Each
// wrapped connection draws from its own rng seeded with m.Seed, so a
// test wrapping several connections should vary the seed per
// connection.
func (m NetFaultModel) Wrap(conn net.Conn) *FaultyConn {
	return &FaultyConn{Conn: conn, model: m, rng: rand.New(rand.NewSource(m.Seed))}
}

// FaultyConn injects NetFaultModel faults into a connection's writes.
// Reads pass through untouched: every write-side fault manifests on
// the peer's read side, which is where the frame protocol's detectors
// live.
type FaultyConn struct {
	net.Conn
	model NetFaultModel

	mu  sync.Mutex
	rng *rand.Rand

	dropped   int
	corrupted int
	truncated int
	delayed   int
}

// Write applies at most one fault to the buffer (priority: drop,
// truncate, corrupt, delay) and forwards it. Dropped and truncated
// writes still report len(b) so the sender proceeds as if the frame
// went out — the fault is only observable at the receiver.
func (f *FaultyConn) Write(b []byte) (int, error) {
	f.mu.Lock()
	m := f.model
	u := f.rng.Float64()
	switch {
	case u < m.DropRate:
		f.dropped++
		f.mu.Unlock()
		return len(b), nil
	case u < m.DropRate+m.TruncateRate && len(b) > 1:
		f.truncated++
		cut := 1 + f.rng.Intn(len(b)-1)
		f.mu.Unlock()
		if _, err := f.Conn.Write(b[:cut]); err != nil {
			return 0, err
		}
		return len(b), nil
	case u < m.DropRate+m.TruncateRate+m.CorruptRate && len(b) > 0:
		f.corrupted++
		bit := f.rng.Intn(len(b) * 8)
		f.mu.Unlock()
		c := append([]byte(nil), b...)
		c[bit/8] ^= 1 << (bit % 8)
		return f.Conn.Write(c)
	case u < m.DropRate+m.TruncateRate+m.CorruptRate+m.DelayRate:
		f.delayed++
		f.mu.Unlock()
		time.Sleep(m.Delay)
		return f.Conn.Write(b)
	default:
		f.mu.Unlock()
		return f.Conn.Write(b)
	}
}

// Injected returns how many writes were dropped, truncated, corrupted,
// and delayed so far.
func (f *FaultyConn) Injected() (dropped, truncated, corrupted, delayed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped, f.truncated, f.corrupted, f.delayed
}

// InjectedTotal returns the total number of faulted writes.
func (f *FaultyConn) InjectedTotal() int {
	d, t, c, y := f.Injected()
	return d + t + c + y
}

// String summarizes the model for logs.
func (m NetFaultModel) String() string {
	return fmt.Sprintf("netfaults{drop=%g corrupt=%g truncate=%g delay=%g/%s seed=%d}",
		m.DropRate, m.CorruptRate, m.TruncateRate, m.DelayRate, m.Delay, m.Seed)
}
