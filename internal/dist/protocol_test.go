package dist

import (
	"bytes"
	"testing"

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

func TestSpecWireRoundTrip(t *testing.T) {
	in := Spec{
		Model: "lenet", Mult: "mul8u_17C8", Estimator: "ours", Scale: "tiny",
		Classes: 7, Seed: -3, Epochs: 9, BatchSize: 20, SliceRows: 4,
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
