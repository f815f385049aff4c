package lut

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
)

func TestProductRoundTrip(t *testing.T) {
	m := appmult.NewTruncated(6, 4)
	table := appmult.BuildLUT(m)
	var buf bytes.Buffer
	if err := WriteProduct(&buf, m.Name(), 6, table); err != nil {
		t.Fatal(err)
	}
	name, bits, got, err := ReadProduct(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != m.Name() || bits != 6 {
		t.Fatalf("header: %q/%d", name, bits)
	}
	for i := range table {
		if got[i] != table[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestTablesRoundTrip(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	src := gradient.Difference(e.Mult.Name(), 6, 2, e.Mult.Mul)
	var buf bytes.Buffer
	if err := WriteTables(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != src.Name || got.Bits != src.Bits || got.HWS != src.HWS {
		t.Fatalf("header: %+v", got)
	}
	for i := range src.DW {
		if got.DW[i] != src.DW[i] || got.DX[i] != src.DX[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	m := appmult.NewTruncated(4, 2)
	var buf bytes.Buffer
	if err := WriteProduct(&buf, m.Name(), 4, appmult.BuildLUT(m)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[20] ^= 0xFF
	if _, _, _, err := ReadProduct(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption not detected: %v", err)
	}
	// Truncation must be detected.
	if _, _, _, err := ReadProduct(bytes.NewReader(raw[:10])); err == nil {
		t.Error("truncated record accepted")
	}
	// Wrong magic must be detected.
	if _, err := ReadTables(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("product record accepted as gradient record: %v", err)
	}
}

func TestWriteProductValidates(t *testing.T) {
	if err := WriteProduct(&bytes.Buffer{}, "x", 4, make([]uint32, 3)); err == nil {
		t.Error("short table accepted")
	}
	if err := WriteProduct(&bytes.Buffer{}, strings.Repeat("n", 5000), 4, make([]uint32, 256)); err == nil {
		t.Error("oversized name accepted")
	}
}

func TestWriteTablesValidates(t *testing.T) {
	bad := &gradient.Tables{Name: "x", Bits: 4, DW: make([]float32, 1), DX: make([]float32, 256)}
	if err := WriteTables(&bytes.Buffer{}, bad); err == nil {
		t.Error("mismatched tables accepted")
	}
	huge := &gradient.Tables{Name: "x", Bits: 4, HWS: 1 << 20, DW: make([]float32, 256), DX: make([]float32, 256)}
	if err := WriteTables(&bytes.Buffer{}, huge); err == nil {
		t.Error("oversized HWS accepted")
	}
}

func TestProductRoundTripProperty(t *testing.T) {
	f := func(seed uint32, nameSuffix uint8) bool {
		bits := 3
		n := 1 << (2 * bits)
		table := make([]uint32, n)
		s := seed
		for i := range table {
			s = s*1664525 + 1013904223
			table[i] = s % 64
		}
		var buf bytes.Buffer
		name := "m" + strings.Repeat("x", int(nameSuffix%10))
		if err := WriteProduct(&buf, name, bits, table); err != nil {
			return false
		}
		gn, gb, got, err := ReadProduct(&buf)
		if err != nil || gn != name || gb != bits {
			return false
		}
		for i := range table {
			if got[i] != table[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLoadedTablesDriveRetraining(t *testing.T) {
	// A gradient table loaded from disk must be usable in an nn.Op.
	e, _ := appmult.Lookup("mul6u_rm4")
	src := gradient.Difference(e.Mult.Name(), 6, 2, e.Mult.Mul)
	var buf bytes.Buffer
	if err := WriteTables(&buf, src); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dw1, dx1 := src.At(10, 20)
	dw2, dx2 := loaded.At(10, 20)
	if dw1 != dw2 || dx1 != dx2 {
		t.Error("loaded tables differ from source")
	}
}
