package dist

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
	"github.com/appmult/retrain/internal/wiretest"
)

func TestMain(m *testing.M) { wiretest.Main(m) }

// TestGoldenFrames pins DSTFRv1 as this package speaks it — proto's
// magic plus the frame-type numbers and payload encoders declared here
// — to the bytes the pre-internal/wire encoder produced.
func TestGoldenFrames(t *testing.T) {
	golden := wiretest.Golden(t)
	var hello, aborted wire.Enc
	hello.U32(ProtocolVersion)
	aborted.U64(42) // step
	aborted.U32(7)  // attempt
	aborted.U32(5)  // slice
	aborted.U8(0)   // not fatal
	aborted.Str("sync aborted")
	for _, tc := range []struct {
		name    string
		seq     uint64
		t       uint8
		payload []byte
	}{
		{"dstfrv1/hello", 0, frameHello, hello.B},
		{"dstfrv1/slice_aborted", 3, frameSliceAborted, aborted.B},
		{"dstfrv1/bye", 5, frameBye, nil},
	} {
		if got := proto.Frame(nil, tc.seq, tc.t, tc.payload); !bytes.Equal(got, golden[tc.name]) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, got, golden[tc.name])
		}
	}
}

// TestWelcomeSpecBytes pins the welcome's spec encoding to the bytes
// written when the slice granularity was still a spec field set to 8:
// the slot stays on the wire, so nodes on either side of that change
// still understand each other.
func TestWelcomeSpecBytes(t *testing.T) {
	const want = "050000006c656e6574090000006d756c38755f726d380a000000736d6f6f7468646966660400000074696e79" +
		"0a0000000500000000000000020000000a00000008000000"
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
	slice.U32(0)              // part index
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
	e.F32s(train.NewReplica(primary, false).PackValues(nil))
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
