package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// testReg is one model entry of a hand-built register payload.
type testReg struct {
	name              string
	classes, imageLen int
}

// encodeRegs encodes a register payload the way a worker's
// encodeRegister does.
func encodeRegs(regs ...testReg) []byte {
	var e wire.Enc
	e.U32(uint32(len(regs)))
	for _, g := range regs {
		e.Str(g.name)
		e.Str("lenet")
		e.U32(uint32(g.classes))
		e.U32(uint32(g.imageLen))
		e.F32(quantGridLo)
		e.F32(quantGridHi)
	}
	return e.B
}

// baseReg is the model testRouter's first worker hosts.
var baseReg = testReg{"m", 3, 3 * 8 * 8}

// testRouter returns a router without a listener whose catalog holds
// baseReg, hosted by worker 1.
func testRouter(t testing.TB) *Router {
	r := &Router{workers: map[int]*fworker{}, catalog: map[string]*modelEntry{}, ring: NewRing()}
	if err := r.register(testWorker(1), encodeRegs(baseReg)); err != nil {
		t.Fatal(err)
	}
	return r
}

func testWorker(id int) *fworker {
	return &fworker{Peer: &wire.Peer{ID: id}, member: fmt.Sprintf("w%d", id), models: map[string]bool{}}
}

// routerState renders what a registration may change: the catalog with
// each entry's hosts, the workers and the ring.
func routerState(r *Router) string {
	var out []string
	for name, ent := range r.catalog {
		hosts := make([]int, 0, len(ent.hosts))
		for id := range ent.hosts {
			hosts = append(hosts, id)
		}
		slices.Sort(hosts)
		out = append(out, fmt.Sprintf("model %q %s %d %d %x %x hosts %v", name, ent.kind, ent.classes, ent.imageLen,
			math.Float32bits(ent.quantLo), math.Float32bits(ent.quantHi), hosts))
	}
	for id, w := range r.workers {
		out = append(out, fmt.Sprintf("worker %d %s", id, w.member))
	}
	for m := range r.ring.members {
		out = append(out, "ring member "+m)
	}
	slices.Sort(out)
	return fmt.Sprint(out, len(r.ring.points))
}

// TestRegisterAllOrNothing: a registration that lists a new model and
// then one the router must refuse — a shape conflicting with the
// catalog's, or the new model again — installs neither: the catalog,
// the workers, the ring and Models() read as before.
func TestRegisterAllOrNothing(t *testing.T) {
	fresh := testReg{"n", 3, 3 * 8 * 8}
	for _, tc := range []struct {
		name   string
		second testReg
	}{
		{"conflicting shape", testReg{baseReg.name, baseReg.classes, baseReg.imageLen + 1}},
		{"same name twice", fresh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRouter(t)
			state, models := routerState(r), r.Models()
			if err := r.register(testWorker(4), encodeRegs(fresh, tc.second)); err == nil {
				t.Fatal("registration accepted")
			}
			if got := routerState(r); got != state {
				t.Errorf("a refused registration changed the router:\n got %s\nwant %s", got, state)
			}
			if got := r.Models(); !reflect.DeepEqual(got, models) {
				t.Errorf("a refused registration changed Models(): %+v, want %+v", got, models)
			}
		})
	}
}

// FuzzRegister feeds arbitrary register payloads to a router that
// already hosts one model. It must never panic; a payload it refuses
// leaves the catalog, the workers and the ring as they were, and one it
// accepts installs every model it lists with the worker as a host.
func FuzzRegister(f *testing.F) {
	fresh := testReg{"n", 3, 3 * 8 * 8}
	f.Add(encodeRegs(fresh))
	f.Add(encodeRegs(baseReg))
	f.Add(encodeRegs(fresh, baseReg))
	f.Add(encodeRegs(fresh, testReg{baseReg.name, baseReg.classes + 1, baseReg.imageLen}))
	f.Add(encodeRegs(fresh, fresh))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		r := testRouter(t)
		state := routerState(r)
		w := testWorker(4)
		if err := r.register(w, p); err != nil {
			if got := routerState(r); got != state {
				t.Fatalf("refused (%v), yet changed the router:\n got %s\nwant %s", err, got, state)
			}
			return
		}
		if n := binary.LittleEndian.Uint32(p); len(w.models) != int(n) {
			t.Fatalf("accepted %d models, installed %d", n, len(w.models))
		}
		if r.workers[w.ID] != w || !r.ring.members[w.member] {
			t.Fatal("accepted, but the worker is not routable")
		}
		for name := range w.models {
			if ent := r.catalog[name]; ent == nil || ent.hosts[w.ID] != w {
				t.Fatalf("accepted, but model %q is not hosted by the worker", name)
			}
		}
	})
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

// FuzzDecodePredict feeds arbitrary predict payloads to the worker's
// decoder. It must never panic, and a payload it accepts re-encodes, as
// the router encodes a predict, to the same bytes.
func FuzzDecodePredict(f *testing.F) {
	var e wire.Enc
	e.U64(99)
	e.Str("m")
	e.U32(250)
	e.F32s([]float32{0, -1.5, float32(math.Inf(1)), 3e-9})
	f.Add(e.B)
	f.Add(e.B[:len(e.B)-1])
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := decodePredict(p)
		if err != nil {
			return
		}
		var e wire.Enc
		e.U64(req.id)
		e.Str(req.model)
		e.U32(req.budgetMS)
		e.F32s(req.image)
		if !bytes.Equal(e.B, p) {
			t.Fatalf("accepted %x, which re-encodes to %x", p, e.B)
		}
	})
}
