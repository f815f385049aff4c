package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc builds a frame payload or a record body (see Seal) in B. All
// integers are little-endian, as in every TRCKPv1, NNCKPv1, AMLUTv1 and
// AMGRDv1 file; floats travel as raw IEEE-754 bit patterns, never
// decimal text.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }

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
	e.RawF32s(vs)
}

// F64s appends a count-prefixed float64 vector, growing B once.
func (e *Enc) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	e.RawF64s(vs)
}

// grow extends B by n bytes and returns the extension to fill.
func (e *Enc) grow(n int) []byte {
	off := len(e.B)
	e.B = slices.Grow(e.B, n)[:off+n]
	return e.B[off:]
}

// RawU32s appends a uint32 vector with no count: for fields whose
// length the record stores elsewhere or implies.
func (e *Enc) RawU32s(vs []uint32) {
	b := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
}

// RawF32s appends a float32 vector with no count.
func (e *Enc) RawF32s(vs []float32) {
	b := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
}

// RawF64s appends a float64 vector with no count.
func (e *Enc) RawF64s(vs []float64) {
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
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

// Dec reads a frame payload or a record body (see Open) in B with
// sticky error handling: after the first short read every accessor
// returns zero values and Err tells the caller the input was truncated.
// Every length, stored or passed to a Raw accessor, is checked against
// the remaining bytes before anything is allocated.
type Dec struct {
	B    []byte
	off  int
	fail bool
}

func (d *Dec) take(n int) []byte {
	if d.fail || n < 0 || n > len(d.B)-d.off {
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

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
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
func (d *Dec) F32s() []float32 { return d.RawF32s(int(d.U32())) }

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
func (d *Dec) F64s() []float64 { return d.RawF64s(int(d.U32())) }

// Raw reads n bytes, aliasing the input.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// RawU32s reads n uint32 values (no stored count) into a fresh slice.
func (d *Dec) RawU32s(n int) []uint32 {
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(s[4*i:])
	}
	return out
}

// RawF32s reads n float32 values (no stored count) into a fresh slice.
func (d *Dec) RawF32s(n int) []float32 {
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

// RawF64s reads n float64 values (no stored count) into a fresh slice.
func (d *Dec) RawF64s(n int) []float64 {
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

// Bytes reads a length-prefixed byte string, aliasing the input.
func (d *Dec) Bytes() []byte { return d.take(int(d.U32())) }

// Failed reports whether a read has already run past the input.
func (d *Dec) Failed() bool { return d.fail }

// Err reports whether a read ran past the input; a complete decode must
// also have consumed every byte.
func (d *Dec) Err() error {
	if d.fail {
		return fmt.Errorf("wire: input truncated (a read at offset %d ran past its %d bytes)", d.off, len(d.B))
	}
	if d.off != len(d.B) {
		return fmt.Errorf("wire: %d trailing bytes after a complete decode", len(d.B)-d.off)
	}
	return nil
}
