package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
	"github.com/appmult/retrain/internal/wiretest"
)

func TestMain(m *testing.M) { wiretest.Main(m) }

// TestGoldenFrames pins DSTFRv1 as this package speaks it — proto's
// magic plus the frame-type numbers and payload layouts declared here.
// hello, slice_aborted and bye are built field by field; slice,
// slice_result, bn_reduce and bn_result are the frames the
// coordinator's and the worker's own senders write, the bn_result
// answering the bn_reduce.
func TestGoldenFrames(t *testing.T) {
	golden := wiretest.Golden(t)
	var hello, aborted wire.Enc
	hello.U32(ProtocolVersion)
	aborted.U64(42) // step
	aborted.U32(7)  // attempt
	aborted.U32(5)  // slice
	aborted.U8(0)   // not fatal
	aborted.Str("sync aborted")

	// Slices 1 and 2 of a 17-row batch's 8-row plan as one run: rows
	// 8..17 of a one-value-per-row input.
	var slice sentConn
	x := tensor.New(17, 1)
	y := make([]int, 17)
	for i := range y {
		x.Data[i] = float32(i) / 4
		y[i] = i % 10
	}
	co := &Coordinator{stepID: 42, attempt: 7}
	if err := co.sendRun(slice.remote(), run{1, 3}, x, y, 17, []int{0, 8, 16, 17}); err != nil {
		t.Fatal(err)
	}

	// The worker's answer to that run: slot 0 saw inputs in [-1, 2],
	// slot 1 (the run's second slice) nothing, as RunSlices leaves it.
	var res sentConn
	ws := &workerSession{fc: wire.NewConn(proto, &res, 0, 0), rep: tinyReplica()}
	ws.set.Plan(ws.rep, 9)
	for k, v := range []struct {
		loss  float64
		grads []float32
	}{{1.5, []float32{0.25, -0.5}}, {0.75, []float32{0.125, 1}}} {
		loss, grads, lo, hi, seen := ws.set.Slot(k)
		*loss = v.loss
		copy(grads, v.grads)
		if k == 0 {
			lo[0], hi[0], seen[0] = -1, 2, true
		}
	}
	if err := ws.sendResult(42, 7, 1, 2); err != nil {
		t.Fatal(err)
	}

	// The phase-1 reduction for group 2 (two channels) of a run that
	// starts at slice 1: per slice the sums, then the count — 0.5,
	// -1.25 and 6, then 0.25, 1 and 2.
	var reduce sentConn
	dead := make(chan struct{})
	close(dead) // no reply comes: Reduce unwinds after sending
	ws = &workerSession{fc: wire.NewConn(proto, &reduce, 0, 0), attempt: 7, readerDead: dead}
	func() {
		defer func() {
			if r := recover(); r != nn.ErrSyncAborted {
				t.Fatalf("Reduce without a reply recovered %v", r)
			}
		}()
		(&bnProxy{s: ws, group: 2, c: 2, first: 1}).Reduce(0, 2, []float64{0.5, -1.25, 6, 0.25, 1, 2})
	}()

	// The coordinator folds it with slice 0's {1, 2, 4}.
	var result sentConn
	co = &Coordinator{attempt: 7, stash: make([][2][]float64, 3)}
	co.bnCond = sync.NewCond(&co.mu)
	for range co.stash {
		co.groups = append(co.groups, nn.NewBNSyncGroup(2))
	}
	co.groups[2].Configure(3)
	go co.groups[2].Reduce(0, 1, []float64{1, 2, 4})
	co.handleBN(result.remote(), reduce.buf.Bytes()[wire.HeaderLen:reduce.buf.Len()-4])

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"dstfrv1/hello", proto.Frame(nil, 0, frameHello, hello.B)},
		{"dstfrv1/slice_aborted", proto.Frame(nil, 3, frameSliceAborted, aborted.B)},
		{"dstfrv1/bye", proto.Frame(nil, 5, frameBye, nil)},
		{"dstfrv1/slice", slice.buf.Bytes()},
		{"dstfrv1/slice_result", res.buf.Bytes()},
		{"dstfrv1/bn_reduce", reduce.buf.Bytes()},
		{"dstfrv1/bn_result", result.buf.Bytes()},
	} {
		if !bytes.Equal(tc.frame, golden[tc.name]) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, tc.frame, golden[tc.name])
		}
	}
}

// tinyReplica is the replica of a 1→1 approximate dense layer: two
// parameters and one observer, so its result slots are a few bytes.
func tinyReplica() *train.Replica {
	op := nn.STEOp(appmult.NewAccurate(8))
	return train.NewReplica(nn.NewSequential("tiny", nn.NewApproxLinear("fc", 1, 1, op, rand.New(rand.NewSource(1)))))
}

// sentConn is a connection whose writes land in buf; a wire.Conn over
// it sends with no deadline, so Write is all it needs.
type sentConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *sentConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// remote is a coordinator-side worker handle sending into c.
func (c *sentConn) remote() *remote {
	return &remote{Peer: &wire.Peer{Conn: wire.NewConn(proto, c, 0, 0)}}
}

// TestWelcomeSpecBytes pins the welcome's spec encoding for a fixed
// spec.
func TestWelcomeSpecBytes(t *testing.T) {
	const want = "050000006c656e6574090000006d756c38755f726d380a000000736d6f6f7468646966660400000074696e79" +
		"0a0000000500000000000000020000000a000000"
	var e wire.Enc
	Spec{Model: "lenet", Mult: "mul8u_rm8", Estimator: "smoothdiff", Scale: "tiny",
		Classes: 10, Seed: 5, Epochs: 2, BatchSize: 10}.encode(&e)
	if got := hex.EncodeToString(e.B); got != want {
		t.Fatalf("welcome spec bytes:\n got %s\nwant %s", got, want)
	}
}

func TestSpecWireRoundTrip(t *testing.T) {
	in := Spec{
		Model: "lenet", Mult: "mul8u_17C8", Estimator: "stochastic(seed=7)", Scale: "tiny",
		Classes: 7, Seed: -3, Epochs: 9, BatchSize: 20,
	}
	var e wire.Enc
	in.encode(&e)
	d := wire.Dec{B: e.B}
	out := decodeSpec(&d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip changed spec: %+v != %+v", out, in)
	}
}

// TestWorkerFramesRejectHugeCounts: a state frame claiming 2^32-1
// vectors and a slice frame claiming 2^32-1 rows are refused; the
// worker must not size anything from a count the payload cannot hold.
// Nor may it compute a run whose slice count is not its rows' plan:
// 2^32-1 slices, or one slice of 9 rows, which are two 8-row slices.
func TestWorkerFramesRejectHugeCounts(t *testing.T) {
	s := &workerSession{}
	var state wire.Enc
	state.Bytes(nil) // params blob
	state.U32(math.MaxUint32)
	if err := s.applyState(state.B); err == nil || s.stateReady {
		t.Fatalf("state frame with 2^32-1 vectors: err %v, ready %v", err, s.stateReady)
	}
	var slice wire.Enc
	slice.U64(1)              // step
	slice.U32(0)              // attempt
	slice.U32(0)              // slice
	slice.U32(1)              // count
	slice.U32(math.MaxUint32) // batch
	slice.U32(math.MaxUint32) // rows
	if err := s.handleSlice(slice.B); err == nil {
		t.Fatal("slice frame with 2^32-1 rows accepted")
	}

	var sent sentConn
	s = &workerSession{fc: wire.NewConn(proto, &sent, 0, 0)}
	if err := s.buildModel(tinySpec("lenet")); err != nil {
		t.Fatal(err)
	}
	const rows = 9
	for _, count := range []uint32{math.MaxUint32, 1} {
		var e wire.Enc
		e.U64(1)     // step
		e.U32(0)     // attempt
		e.U32(0)     // slice
		e.U32(count) // count
		e.U32(rows)  // batch
		e.U32(rows)  // rows
		for i := 0; i < rows; i++ {
			e.U32(0) // label
		}
		e.F32s(make([]float32, rows*3*s.hw*s.hw))
		if err := s.handleSlice(e.B); err == nil || sent.buf.Len() > 0 {
			t.Fatalf("slice frame of %d rows claiming %d slices: err %v, %d bytes sent", rows, count, err, sent.buf.Len())
		}
	}
}

// FuzzHandleSlice feeds arbitrary slice payloads to a lenet worker's
// decoder. It must never panic, and a frame it accepts is answered
// with exactly one slice_result or slice_aborted.
func FuzzHandleSlice(f *testing.F) {
	golden := wiretest.Golden(f)["dstfrv1/slice"]
	f.Add(golden[wire.HeaderLen : len(golden)-4])
	var sent sentConn
	s := &workerSession{fc: wire.NewConn(proto, &sent, 0, 0)}
	if err := s.buildModel(tinySpec("lenet")); err != nil {
		f.Fatal(err)
	}
	// A run this worker computes: 2 slices of a 12-row batch.
	var valid sentConn
	x := tensor.New(12, 3, s.hw, s.hw)
	x.RandNormal(rand.New(rand.NewSource(1)), 1)
	if err := (&Coordinator{stepID: 1}).sendRun(valid.remote(), run{0, 2}, x, make([]int, 12), 12, []int{0, 8, 12}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.buf.Bytes()[wire.HeaderLen : valid.buf.Len()-4])
	f.Fuzz(func(t *testing.T, p []byte) {
		sent.buf.Reset()
		if err := s.handleSlice(p); err != nil {
			if sent.buf.Len() > 0 {
				t.Fatalf("rejected (%v), yet sent %d bytes", err, sent.buf.Len())
			}
			return
		}
		b := sent.buf.Bytes()
		if n := len(b); n < wire.HeaderLen || n != wire.HeaderLen+int(binary.LittleEndian.Uint32(b[17:]))+4 ||
			(b[16] != frameSliceResult && b[16] != frameSliceAborted) {
			t.Fatalf("accepted, then sent %x", b)
		}
	})
}

// FuzzRecordResult feeds arbitrary slice_result payloads to the
// coordinator for a run of slices 1 and 2 of a tiny replica's 17-row
// plan. It must never panic, and a payload it accepts has exactly the
// two slots' length.
func FuzzRecordResult(f *testing.F) {
	golden := wiretest.Golden(f)["dstfrv1/slice_result"]
	p := golden[wire.HeaderLen : len(golden)-4]
	f.Add(p)
	f.Add(p[:len(p)-1])
	co := &Coordinator{}
	co.set.Plan(tinyReplica(), 17)
	f.Fuzz(func(t *testing.T, p []byte) {
		ev, err := co.workEvent(nil, frameSliceResult, p)
		if err != nil {
			return
		}
		const want = 8 + 3*4 + 2*(8+4+9+4+2*4) // head, then per slot loss, ranges and grads
		if err := co.recordResult(ev, run{1, 3}); err == nil && len(p) != want {
			t.Fatalf("accepted a %d-byte result, want %d bytes", len(p), want)
		}
	})
}

// TestApplyParamsLeavesNoStaleWeights is the dist row of
// train.TestNoStaleWeightsAfterAnyWriter: a worker replica that has
// already run holds weight-side state for its old weights; after a
// params frame its next Predict must equal, bit for bit, a fresh model
// holding the weights the frame carried.
func TestApplyParamsLeavesNoStaleWeights(t *testing.T) {
	spec := tinySpec("lenet")
	s := &workerSession{}
	if err := s.buildModel(spec); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, s.hw, s.hw)
	x.RandNormal(rand.New(rand.NewSource(3)), 1)
	before := s.model.Predict(x).Clone()

	spec.Seed++
	primary, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Enc
	e.U64(1) // step
	e.F32s(train.NewReplica(primary).PackValues(nil))
	if err := s.applyParams(e.B); err != nil {
		t.Fatal(err)
	}

	got := s.model.Predict(x).Clone()
	want := models.Clone(s.model).Predict(x)
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.Data, want.Data) {
		t.Fatal("Predict after applyParams differs from a fresh model holding the same weights: stale weight-side state")
	}
	if same(got.Data, before.Data) {
		t.Fatal("the params frame did not move the output")
	}
}
