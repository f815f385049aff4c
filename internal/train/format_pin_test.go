package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/lut"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

// TestRecordFormatsPinned holds the SHA-256 of the four on-disk record
// formats — NNCKPv1, TRCKPv1, AMLUTv1 and AMGRDv1 — written from fixed
// inputs. The round-trip and corruption tests accept any layout that
// reads back what it wrote; this one fails on any change to the bytes,
// so files written by an older build keep loading.
func TestRecordFormatsPinned(t *testing.T) {
	// The inputs are set value by value, so the digests move only with
	// the formats, not with model initialisation or gradient math.
	m := robustModel(1)
	for i, p := range m.Params() {
		for j := range p.Value.Data {
			p.Value.Data[j] = float32(i+1)*0.5 - float32(j)*0.001
		}
		p.Touch()
	}
	states := nn.CollectState(m)
	for i, s := range states {
		for j := range s {
			s[j] = float32(i+1) * float32(j+1) * 0.25
		}
	}
	if err := nn.RestoreState(m, states); err != nil {
		t.Fatal(err)
	}
	adam := optim.NewAdam().Snapshot(m.Params())
	adam.Step = 17
	for i := range adam.M {
		for j := range adam.M[i] {
			adam.M[i][j] = float64(i) - float64(j)*1e-3
			adam.V[i][j] = float64(j) * 1e-6
		}
	}
	st := CheckpointState{Epoch: 2, Seed: -3, Adam: adam, Result: Result{
		TrainLoss: []float64{2.25, 1.5}, TestTop1: []float64{0.125, 0.375}, TestTop5: []float64{0.5, 0.875},
		Seconds: 12.5, SkippedSteps: 1, Rollbacks: 2, Retries: 3, InjectedFaults: 4,
	}}

	var params bytes.Buffer
	if err := nn.SaveParams(&params, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pin.ckpt")
	if err := SaveCheckpoint(path, m, st); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 5
	product := make([]uint32, 1<<(2*bits))
	for i := range product {
		product[i] = uint32(i*i) ^ 0x5a
	}
	var amlut bytes.Buffer
	if err := lut.WriteProduct(&amlut, "mul5u_pin", bits, product); err != nil {
		t.Fatal(err)
	}
	tab := &gradient.Tables{Name: "mul5u_pin/smoothdiff", Bits: bits, HWS: 6,
		DW: make([]float32, len(product)), DX: make([]float32, len(product))}
	for i := range product {
		tab.DW[i] = float32(i) * 0.75
		tab.DX[i] = -float32(i) / 3
	}
	var amgrd bytes.Buffer
	if err := lut.WriteTables(&amgrd, tab); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		format string
		rec    []byte
		want   string
	}{
		{"NNCKPv1", params.Bytes(), "044d97cbee5d6eb973adcb3001b6842d1cca45b427b1e9fb975e590b8488af8d"},
		{"TRCKPv1", ckpt, "29324b9d3014e369d39677fdfdd7bab8fbdf65d6f85d26f01de53c05e3ef8fbc"},
		{"AMLUTv1", amlut.Bytes(), "b3162be28cbe6bb5033b224a14a76940f00b2e3f66e09a1fcbd04808d66e462c"},
		{"AMGRDv1", amgrd.Bytes(), "af0751980fdd14fafacd386df2256d79496e3d8481ecb57cbad2314194c606da"},
	} {
		sum := sha256.Sum256(c.rec)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s record (%d bytes) has SHA-256 %s, want %s", c.format, len(c.rec), got, c.want)
		}
	}
}
