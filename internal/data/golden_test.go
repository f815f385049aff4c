package data

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// splitCRC is the CRC32 (IEEE) of a split's bytes: every image value's
// float32 bits little-endian, then every label as a little-endian
// uint32.
func splitCRC(ds *Dataset) uint32 {
	b := make([]byte, 0, 4*(len(ds.X.Data)+len(ds.Y)))
	for _, v := range ds.X.Data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	for _, y := range ds.Y {
		b = binary.LittleEndian.AppendUint32(b, uint32(y))
	}
	return crc32.ChecksumIEEE(b)
}

// TestSyntheticGolden pins the generator's bytes for the configs the
// experiments and the benchmark train on: a change to the generator
// that moves a single value (a reordered RNG draw, a different
// rounding) fails here instead of silently moving every accuracy and
// loss downstream. The checksums were taken from the generator as it
// computed every pixel's prototype value inline.
func TestSyntheticGolden(t *testing.T) {
	cases := []struct {
		name              string
		cfg               SynthConfig
		trainCRC, testCRC uint32
	}{
		// train.ReducedScale at the benchmark's seed.
		{"reduced", SynthConfig{Classes: 10, Train: 960, Test: 240, HW: 16, Seed: 41}, 0x27b9992c, 0xb25466a4},
		// train.TinyScale.
		{"tiny", SynthConfig{Classes: 10, Train: 120, Test: 60, HW: 8, Seed: 5}, 0x250c9298, 0x60100bc8},
		// The CIFAR-100 stand-in at paper resolution, noisier.
		{"c100", SynthConfig{Classes: 100, Train: 300, Test: 150, HW: 32, Seed: 3, Noise: 0.4}, 0xca80b0fc, 0xa31c991a},
	}
	for _, c := range cases {
		tr, te := Synthetic(c.cfg)
		if got := splitCRC(tr); got != c.trainCRC {
			t.Errorf("%s: train CRC %#08x, want %#08x", c.name, got, c.trainCRC)
		}
		if got := splitCRC(te); got != c.testCRC {
			t.Errorf("%s: test CRC %#08x, want %#08x", c.name, got, c.testCRC)
		}
	}
}
