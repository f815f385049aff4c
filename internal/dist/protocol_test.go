package dist

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

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
// bn_reduce and bn_result are the frames the coordinator's and the
// worker's own senders write, the bn_result answering the bn_reduce.
func TestGoldenFrames(t *testing.T) {
	golden := wiretest.Golden(t)
	var hello, aborted wire.Enc
	hello.U32(ProtocolVersion)
	aborted.U64(42) // step
	aborted.U32(7)  // attempt
	aborted.U32(5)  // slice
	aborted.U8(0)   // not fatal
	aborted.Str("sync aborted")

	// Slice 1 of a 3-row batch cut [0, 2, 3), for 2 sync-BN participants.
	var slice sentConn
	co := &Coordinator{stepID: 42, attempt: 7}
	x := tensor.New(3, 1)
	copy(x.Data, []float32{0.5, -1, 2})
	if err := co.sendSlice(slice.remote(), 1, x, []int{3, 1, 4}, 3, []int{0, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}

	// Participant 1's phase-1 reduction for group 2 (two channels): the
	// sums 0.5 and -1.25, then the count 6.
	var reduce sentConn
	dead := make(chan struct{})
	close(dead) // no reply comes: Reduce unwinds after sending
	ws := &workerSession{fc: wire.NewConn(proto, &reduce, 0, 0), attempt: 7, readerDead: dead}
	func() {
		defer func() {
			if r := recover(); r != nn.ErrSyncAborted {
				t.Fatalf("Reduce without a reply recovered %v", r)
			}
		}()
		(&bnProxy{s: ws, group: 2, c: 2}).Reduce(1, []float64{0.5, -1.25, 6})
	}()

	// The coordinator folds it with participant 0's {1, 2, 4}.
	var result sentConn
	co = &Coordinator{attempt: 7, stash: make([][2][]float64, 3)}
	co.bnCond = sync.NewCond(&co.mu)
	for range co.stash {
		co.groups = append(co.groups, nn.NewBNSyncGroup(2))
	}
	co.groups[2].Configure(2)
	go co.groups[2].Reduce(0, []float64{1, 2, 4})
	co.handleBN(result.remote(), reduce.buf.Bytes()[wire.HeaderLen:reduce.buf.Len()-4])

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"dstfrv1/hello", proto.Frame(nil, 0, frameHello, hello.B)},
		{"dstfrv1/slice_aborted", proto.Frame(nil, 3, frameSliceAborted, aborted.B)},
		{"dstfrv1/bye", proto.Frame(nil, 5, frameBye, nil)},
		{"dstfrv1/slice", slice.buf.Bytes()},
		{"dstfrv1/bn_reduce", reduce.buf.Bytes()},
		{"dstfrv1/bn_result", result.buf.Bytes()},
	} {
		if !bytes.Equal(tc.frame, golden[tc.name]) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, tc.frame, golden[tc.name])
		}
	}
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
		Model: "lenet", Mult: "mul8u_17C8", Estimator: "ours", Scale: "tiny",
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
	slice.U32(math.MaxUint32) // batch
	slice.U32(0)              // parts
	slice.U32(math.MaxUint32) // rows
	if err := s.handleSlice(slice.B); err == nil {
		t.Fatal("slice frame with 2^32-1 rows accepted")
	}
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
