// Package fleet is the distributed multi-node serving tier: a router
// that fronts client HTTP traffic and a set of worker processes that
// host warm internal/serve replicas, speaking a compact length-prefixed
// binary frame protocol (FLTFRv1, carried by internal/wire).
//
// The router owns the fleet-wide request path: consistent-hash routing
// by model name over per-model replica sets, bounded admission, request
// hedging to a warm standby once a request outlives the model's recent
// latency percentile, failover of in-flight requests when a worker's
// heartbeat lapses, and a size-bounded exact-match LRU response cache
// keyed on the quantized input bytes — quantized uint8 inputs make two
// nearby images collapse onto the same grid point, so exact-match
// caching is genuinely effective for this workload. Workers register
// their model set on join, serve predict frames through their local
// micro-batching queues, and autoscale their per-model replica counts
// from the live serve_* gauges in internal/obs.
//
// See docs/fleet-protocol.md for the frame types and the
// routing/hedging/failover state machine, and docs/wire-frame.md for
// the frame layer under them.
package fleet

import "github.com/appmult/retrain/internal/wire"

// ProtocolVersion is the frame-protocol generation carried in
// Hello/Welcome. A router refuses workers speaking a different
// version.
const ProtocolVersion = 1

// Frame types. Payload layouts are specified in docs/fleet-protocol.md;
// encode/decode helpers live next to their users in router.go and
// worker.go.
const (
	frameHello    uint8 = iota + 1 // worker → router: protocol version
	frameWelcome                   // router → worker: worker id
	frameRegister                  // worker → router: hosted model set
	framePredict                   // router → worker: one prediction request
	frameResult                    // worker → router: scores for one request
	frameError                     // worker → router: failure for one request
	framePing                      // router → worker: liveness probe
	framePong                      // worker → router: liveness answer + load report
	frameBye                       // router → worker: dismissed, disconnect
)

// Worker-reported error codes carried in frameError payloads. The
// router maps them onto retry decisions and HTTP statuses.
const (
	errCodeOverloaded = 1 // worker queue full — retry on another replica
	errCodeBadRequest = 2 // malformed request — not retryable
	errCodeInternal   = 3 // inference failure — retryable elsewhere
	errCodeExpired    = 4 // deadline passed while queued — not retryable
)

// proto is FLTFRv1: its own magic, so a worker dialed at a traind port
// (or vice versa) fails on the first 8 bytes. Predict frames carry one
// image (a few KiB); the 64 MiB payload cap is far above any request
// this tier routes.
var proto = &wire.Protocol{
	Magic:      [8]byte{'F', 'L', 'T', 'F', 'R', 'v', '1', '\n'},
	MaxPayload: 1 << 26,
	Version:    ProtocolVersion,
	Hello:      frameHello,
	Welcome:    frameWelcome,
	Ping:       framePing,
	Pong:       framePong,
	Bye:        frameBye,
	Names: []string{"?", "hello", "welcome", "register", "predict",
		"result", "error", "ping", "pong", "bye"},
	Metrics: wire.NewMetrics("fleet", nil),
}
