package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc builds a frame payload in B. All integers are little-endian,
// matching the TRCKPv1 checkpoint conventions; floats travel as raw
// IEEE-754 bit patterns, never decimal text.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// F32 appends a float32 bit pattern.
func (e *Enc) F32(v float32) { e.U32(math.Float32bits(v)) }

// F64 appends a float64 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32s appends a count-prefixed float32 vector, growing B once.
func (e *Enc) F32s(vs []float32) {
	e.U32(uint32(len(vs)))
	n := len(e.B)
	e.B = slices.Grow(e.B, 4*len(vs))[:n+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(e.B[n+4*i:], math.Float32bits(v))
	}
}

// F64s appends a count-prefixed float64 vector, growing B once.
func (e *Enc) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	n := len(e.B)
	e.B = slices.Grow(e.B, 8*len(vs))[:n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(e.B[n+8*i:], math.Float64bits(v))
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Dec reads the frame payload B with sticky error handling: after the
// first short read every accessor returns zero values and Err tells
// the caller the payload was malformed. All length fields are bounds-
// checked against the remaining payload before allocation.
type Dec struct {
	B    []byte
	off  int
	fail bool
}

func (d *Dec) take(n int) []byte {
	if d.fail || n < 0 || d.off+n > len(d.B) {
		d.fail = true
		return nil
	}
	s := d.B[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// F32 reads a float32 bit pattern.
func (d *Dec) F32() float32 { return math.Float32frombits(d.U32()) }

// F64 reads a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F32s reads a count-prefixed float32 vector into a fresh slice.
func (d *Dec) F32s() []float32 {
	n := int(d.U32())
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}

// F32sInto decodes a float32 vector into dst, requiring an exact
// length match.
func (d *Dec) F32sInto(dst []float32) bool {
	n := int(d.U32())
	if n != len(dst) {
		d.fail = true
		return false
	}
	s := d.take(4 * n)
	if s == nil {
		return false
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return true
}

// F64s reads a count-prefixed float64 vector into a fresh slice.
func (d *Dec) F64s() []float64 {
	n := int(d.U32())
	s := d.take(8 * n)
	if s == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	s := d.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Bytes reads a length-prefixed byte string, aliasing the payload.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	return d.take(n)
}

// Failed reports whether a read has already run past the payload.
func (d *Dec) Failed() bool { return d.fail }

// Err reports whether decoding consumed malformed or missing bytes; a
// complete decode must also have consumed the whole payload.
func (d *Dec) Err() error {
	if d.fail {
		return fmt.Errorf("wire: malformed frame payload (offset %d of %d)", d.off, len(d.B))
	}
	if d.off != len(d.B) {
		return fmt.Errorf("wire: frame payload has %d trailing bytes", len(d.B)-d.off)
	}
	return nil
}
