package fleet

import (
	"bytes"
	"context"
	"math"
	"testing"

	"github.com/appmult/retrain/internal/serve"
	"github.com/appmult/retrain/internal/wire"
	"github.com/appmult/retrain/internal/wiretest"
)

func TestMain(m *testing.M) { wiretest.Main(m) }

// TestGoldenFrames pins FLTFRv1 as this package speaks it — proto's
// magic plus the frame-type numbers, error codes and payload encoders
// declared here — to the bytes the pre-internal/wire encoder produced.
func TestGoldenFrames(t *testing.T) {
	golden := wiretest.Golden(t)
	var hello, overloaded wire.Enc
	hello.U32(ProtocolVersion)
	overloaded.U64(42) // attempt id
	overloaded.U8(errCodeOverloaded)
	overloaded.Str("queue full")
	for _, tc := range []struct {
		name    string
		seq     uint64
		t       uint8
		payload []byte
	}{
		{"fltfrv1/hello", 0, frameHello, hello.B},
		{"fltfrv1/error", 2, frameError, overloaded.B},
		{"fltfrv1/bye", 4, frameBye, nil},
	} {
		if got := proto.Frame(nil, tc.seq, tc.t, tc.payload); !bytes.Equal(got, golden[tc.name]) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, got, golden[tc.name])
		}
	}
}

// TestRegisterWireRoundTrip: what a worker's encodeRegister announces
// is what the router's register installs, and a payload cut anywhere is
// refused without touching the catalog.
func TestRegisterWireRoundTrip(t *testing.T) {
	wk, err := NewWorker(WorkerConfig{Models: []serve.Spec{fleetSpec()}})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Drain(context.Background())
	payload := wk.encodeRegister()

	r := &Router{workers: map[int]*fworker{}, catalog: map[string]*modelEntry{}, ring: NewRing()}
	w := &fworker{Peer: &wire.Peer{ID: 3}, member: "w3", models: map[string]bool{}}
	if err := r.register(w, payload); err != nil {
		t.Fatalf("register: %v", err)
	}
	ent := r.catalog["m"]
	if ent == nil || ent.kind != "lenet" || ent.classes != 3 || ent.imageLen != 3*8*8 ||
		ent.quantLo != quantGridLo || ent.quantHi != quantGridHi || ent.hosts[3] != w || !w.models["m"] {
		t.Fatalf("registered entry %+v", ent)
	}
	for cut := 0; cut < len(payload); cut++ {
		r2 := &Router{workers: map[int]*fworker{}, catalog: map[string]*modelEntry{}, ring: NewRing()}
		if r2.register(w, payload[:cut]) == nil || len(r2.catalog) != 0 {
			t.Fatalf("registration cut at %d of %d accepted", cut, len(payload))
		}
	}
}

// TestRegisterRejectsHugeCount: a register payload whose model count
// the bytes cannot hold is refused; the router must not size anything
// from the count.
func TestRegisterRejectsHugeCount(t *testing.T) {
	r := &Router{workers: map[int]*fworker{}, catalog: map[string]*modelEntry{}, ring: NewRing()}
	w := &fworker{Peer: &wire.Peer{ID: 3}, member: "w3", models: map[string]bool{}}
	if err := r.register(w, []byte{0xff, 0xff, 0xff, 0xff}); err == nil || len(r.catalog) != 0 {
		t.Fatalf("register of a 2^32-1 model count: err %v, catalog %v", err, r.catalog)
	}
}

// TestPredictWireRoundTrip: the router's predict encoding decodes to
// the same request bit for bit, and trailing or missing bytes are
// refused.
func TestPredictWireRoundTrip(t *testing.T) {
	img := []float32{0, -1.5, float32(math.Inf(1)), 3e-9}
	var e wire.Enc
	e.U64(99)
	e.Str("m")
	e.U32(250)
	e.F32s(img)
	req, err := decodePredict(e.B)
	if err != nil {
		t.Fatal(err)
	}
	if req.id != 99 || req.model != "m" || req.budgetMS != 250 || len(req.image) != len(img) {
		t.Fatalf("decoded %+v", req)
	}
	for i := range img {
		if math.Float32bits(req.image[i]) != math.Float32bits(img[i]) {
			t.Fatalf("image[%d]: %x != %x", i, math.Float32bits(req.image[i]), math.Float32bits(img[i]))
		}
	}
	if _, err := decodePredict(append(e.B, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodePredict(e.B[:len(e.B)-1]); err == nil {
		t.Fatal("short payload accepted")
	}
}
