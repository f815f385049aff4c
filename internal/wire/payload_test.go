package wire

import (
	"bytes"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.F32(-1.5)
	e.F64(3.25)
	e.F32s([]float32{0, 1.25, -3e7})
	e.F64s([]float64{4, 5})
	e.F32s([]float32{9, 8})
	e.Str("spec")
	e.Bytes([]byte{9, 8})
	e.U16(0xBEEF)
	e.RawU32s([]uint32{1, 1 << 31})
	e.RawF32s([]float32{-2.5})
	e.RawF64s([]float64{1e300, -0.5})
	e.B = append(e.B, "name"...)
	d := Dec{B: e.B}
	if d.U8() != 7 || d.U32() != 0xDEADBEEF || d.U64() != 1<<60 ||
		d.F32() != -1.5 || d.F64() != 3.25 {
		t.Fatal("scalar round trip failed")
	}
	if f := d.F32s(); len(f) != 3 || f[1] != 1.25 || f[2] != -3e7 {
		t.Fatalf("F32s round trip: %v", f)
	}
	if f := d.F64s(); len(f) != 2 || f[1] != 5 {
		t.Fatalf("F64s round trip: %v", f)
	}
	into := make([]float32, 2)
	if !d.F32sInto(into) || into[0] != 9 || into[1] != 8 {
		t.Fatalf("F32sInto round trip: %v", into)
	}
	if d.Str() != "spec" {
		t.Fatal("Str round trip failed")
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{9, 8}) {
		t.Fatalf("Bytes round trip: %v", b)
	}
	if d.U16() != 0xBEEF {
		t.Fatal("U16 round trip failed")
	}
	if u := d.RawU32s(2); len(u) != 2 || u[1] != 1<<31 {
		t.Fatalf("RawU32s round trip: %v", u)
	}
	if f := d.RawF32s(1); len(f) != 1 || f[0] != -2.5 {
		t.Fatalf("RawF32s round trip: %v", f)
	}
	if f := d.RawF64s(2); len(f) != 2 || f[0] != 1e300 || f[1] != -0.5 {
		t.Fatalf("RawF64s round trip: %v", f)
	}
	if b := d.Raw(4); string(b) != "name" {
		t.Fatalf("Raw round trip: %q", b)
	}
	if d.Failed() || d.Err() != nil {
		t.Fatalf("clean decode errored: %v", d.Err())
	}
}

func TestDecMalformedAndTrailing(t *testing.T) {
	// A count that overruns the payload fails sticky — it must not
	// panic, and must not allocate what it claims.
	for name, read := range map[string]func(*Dec) bool{
		"F32s":    func(d *Dec) bool { return d.F32s() == nil },
		"F64s":    func(d *Dec) bool { return d.F64s() == nil },
		"Str":     func(d *Dec) bool { return d.Str() == "" },
		"Bytes":   func(d *Dec) bool { return d.Bytes() == nil },
		"Raw":     func(d *Dec) bool { return d.Raw(1<<30) == nil },
		"RawU32s": func(d *Dec) bool { return d.RawU32s(1<<30) == nil },
		"RawF32s": func(d *Dec) bool { return d.RawF32s(1<<30) == nil },
		"RawF64s": func(d *Dec) bool { return d.RawF64s(1<<30) == nil },
	} {
		var e Enc
		e.U32(1 << 30) // claims a billion elements follow
		d := Dec{B: e.B}
		if !read(&d) || !d.Failed() || d.Err() == nil {
			t.Errorf("%s: oversized count accepted", name)
		}
		// After failure every accessor stays zero.
		if d.U8() != 0 || d.U32() != 0 || d.U64() != 0 || d.F32() != 0 || d.F64() != 0 {
			t.Errorf("%s: sticky failure not sticky", name)
		}
	}

	// F32sInto demands the exact length.
	var e Enc
	e.F32s([]float32{1, 2, 3})
	d := Dec{B: e.B}
	if d.F32sInto(make([]float32, 2)) || d.Err() == nil {
		t.Error("F32sInto accepted a length mismatch")
	}

	// Trailing bytes are an error too.
	d2 := Dec{B: []byte{1, 2}}
	d2.U8()
	if d2.Failed() || d2.Err() == nil {
		t.Error("trailing byte not reported")
	}
}
