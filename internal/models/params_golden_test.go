package models

import (
	"bytes"
	"hash/crc32"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/nn"
)

// TestSaveParamsGolden pins the parameter layout of the benchmark's
// models: the CRC32 of nn.SaveParams covers every parameter's name, size
// and Kaiming draw, in order, so a layer rewrite that renames, reshapes,
// reorders or re-draws a parameter fails here instead of silently
// orphaning every NNCKPv1 and TRCKPv1 file and DSTFRv1 params frame
// written before it. The checksums were taken from the layers as they
// were before the dense layers became 1x1 convolutions; the float model
// and its ApproxConv twin share them (same names, same draws).
func TestSaveParamsGolden(t *testing.T) {
	op := nn.STEOp(appmult.NewAccurate(7))
	for _, tc := range []struct {
		kind string
		crc  uint32
	}{
		{"lenet", 0xe94b0f33},
		{"vgg11", 0xb21c0644},
		{"resnet18", 0x3d92e607},
	} {
		for _, twin := range []struct {
			name string
			conv ConvFactory
		}{{"float", FloatConv()}, {"approx", ApproxConv(op)}} {
			// train.ReducedScale's geometry at seed 3.
			m, err := ByKind(tc.kind, Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: twin.conv, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := nn.SaveParams(&b, m); err != nil {
				t.Fatal(err)
			}
			// The file's own trailing checksum: the CRC of the bytes before
			// it (a CRC over the whole file is the constant CRC residue).
			if got := crc32.ChecksumIEEE(b.Bytes()[:b.Len()-4]); got != tc.crc {
				t.Errorf("%s/%s: SaveParams CRC %#08x, want %#08x", tc.kind, twin.name, got, tc.crc)
			}
		}
	}
}
