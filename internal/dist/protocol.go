// Package dist runs the deterministic sharded training step of
// internal/train across processes: a coordinator that owns the primary
// model and the training loop, and workers that compute gradient
// slices over TCP. The coordinator implements train.Stepper, so
// train.Run drives a remote fleet exactly as it drives an in-process
// ShardedStep — same slice plan, same stride-doubling reduction tree,
// same observer merge — which is what makes a 2-worker run over the
// network bit-identical to `-shards 1` on BN-free models.
//
// Robustness is structural, not best-effort: internal/wire tears a
// connection down on any dropped, truncated, or corrupted frame rather
// than let the replicas desynchronize; a killed connection triggers
// worker-side reconnect with exponential backoff and a full state
// re-sync, so recovery is idempotent; and a worker that dies mid-step
// has its outstanding run of slices reassigned to survivors within the
// same step. See docs/dist-protocol.md for the frame types,
// docs/wire-frame.md for the frame layer under them, and DESIGN.md for
// the failure-handling state machine.
package dist

import (
	"fmt"

	"github.com/appmult/retrain/internal/wire"
)

// ProtocolVersion is the frame-protocol generation carried in
// Hello/Welcome. A coordinator refuses workers speaking a different
// version — silent cross-version operation could break bit-identity.
const ProtocolVersion = 3

// Frame types. The payload layouts are specified in
// docs/dist-protocol.md; encode/decode helpers live next to their
// users in coordinator.go and worker.go, except the observer ranges
// both sides write (encodeRanges below).
const (
	frameHello        uint8 = iota + 1 // worker → coord: protocol version
	frameWelcome                       // coord → worker: worker id + job spec
	frameState                         // coord → worker: params blob + layer state
	frameSlice                         // coord → worker: a run of gradient slices
	frameSliceResult                   // worker → coord: per slice of the run, loss + ranges + gradients
	frameSliceAborted                  // worker → coord: slice unwound (abort or panic)
	frameObserve                       // coord → worker: merged observer ranges
	frameParams                        // coord → worker: post-optimizer parameter values
	framePing                          // coord → worker: liveness probe
	framePong                          // worker → coord: liveness answer
	frameBNReduce                      // worker → coord: sync-BN partial vectors
	frameBNResult                      // coord → worker: folded sync-BN vectors
	frameBNAbort                       // coord → worker: sync-BN reduction aborted
	frameBye                           // coord → worker: run finished, disconnect
)

// proto is DSTFRv1. State frames carry whole models; the 1 GiB payload
// cap is far above any model this repo trains but still a sane bound
// on what a corrupt length field can make a receiver allocate.
var proto = &wire.Protocol{
	Magic:      [8]byte{'D', 'S', 'T', 'F', 'R', 'v', '1', '\n'},
	MaxPayload: 1 << 30,
	Version:    ProtocolVersion,
	Hello:      frameHello,
	Welcome:    frameWelcome,
	Ping:       framePing,
	Pong:       framePong,
	Bye:        frameBye,
	Names: []string{"?", "hello", "welcome", "state", "slice", "slice_result",
		"slice_aborted", "observe", "params", "ping", "pong", "bn_reduce",
		"bn_result", "bn_abort", "bye"},
	Metrics: wire.NewMetrics("dist", frameSizeBytes),
}

// bufPool recycles payload buffers between a connection's reader,
// which must copy each payload out before its next Recv, and the
// goroutine that decodes it and puts the buffer back: a few buffers
// that have grown to the largest frame serve every frame, instead of
// one fresh copy per frame. A decoder keeps no reference into a
// payload it has put back. The nil pool recycles nothing.
type bufPool chan []byte

// newBufPool returns a pool holding up to four idle buffers. Few frames
// wait between a reader and its consumer at once — a worker's run with
// the observe and params frames behind it, a result per worker on the
// coordinator — and a frame beyond the pool gets a fresh buffer, never
// a wait.
func newBufPool() bufPool { return make(bufPool, 4) }

// fill copies p into an idle buffer, or a fresh one when none is idle.
func (bp bufPool) fill(p []byte) []byte {
	var b []byte
	select {
	case b = <-bp:
	default:
	}
	return append(b[:0], p...)
}

// put returns b to the pool; with the pool full it is left to the GC.
func (bp bufPool) put(b []byte) {
	if b == nil {
		return
	}
	select {
	case bp <- b:
	default:
	}
}

// encodeRanges appends per-observer activation ranges, the tail shared
// by slice_result (a slot's raw ranges) and observe (the merged
// ones): count u32, then min f32 | max f32 | seen u8 per observer.
func encodeRanges(e *wire.Enc, lo, hi []float32, seen []bool) {
	e.U32(uint32(len(lo)))
	for i := range lo {
		e.F32(lo[i])
		e.F32(hi[i])
		if seen[i] {
			e.U8(1)
		} else {
			e.U8(0)
		}
	}
}

// decodeRanges reads encodeRanges' layout into lo, hi and seen, whose
// length is the model's observer count. A short payload shows in d's
// error as usual.
func decodeRanges(d *wire.Dec, lo, hi []float32, seen []bool) error {
	if n := int(d.U32()); n != len(lo) {
		return fmt.Errorf("carries %d observers, model has %d", n, len(lo))
	}
	for i := range lo {
		lo[i] = d.F32()
		hi[i] = d.F32()
		seen[i] = d.U8() != 0
	}
	return nil
}
