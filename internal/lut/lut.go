// Package lut serializes the framework's lookup tables — product LUTs
// and gradient-table pairs — to a compact binary format. The paper's
// CUDA implementation keeps these tables resident in GPU shared memory
// (a 7-bit product LUT is 2^14 entries); here they are artifacts that
// can be generated once (e.g. from a slow ALS run or an external
// characterization) and shipped alongside a model.
//
// Format (little endian, in wire.Seal's magic/CRC envelope):
//
//	magic   [8]byte  "AMLUTv1\n" (products) or "AMGRDv1\n" (gradients)
//	nameLen uint16, name bytes
//	bits    uint8
//	hws     uint16   (gradients only; 0 = STE/not applicable)
//	payload product: 2^(2B) x uint32
//	        gradient: 2^(2B) x float32 (DW) then 2^(2B) x float32 (DX)
//	crc32   uint32   (IEEE, over everything before it)
package lut

import (
	"fmt"
	"io"
	"math"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/wire"
)

const (
	productMagic  = "AMLUTv1\n"
	gradientMagic = "AMGRDv1\n"
)

const maxNameLen = 1 << 12

// WriteProduct serializes a product LUT.
func WriteProduct(w io.Writer, name string, bits int, table []uint32) error {
	bitutil.CheckWidth(bits)
	if len(table) != bitutil.NumPairs(bits) {
		return fmt.Errorf("lut: product table has %d entries, want %d", len(table), bitutil.NumPairs(bits))
	}
	e, err := header(name, bits)
	if err != nil {
		return err
	}
	e.RawU32s(table)
	_, err = w.Write(wire.Seal(productMagic, e.B))
	return err
}

// ReadProduct deserializes a product LUT.
func ReadProduct(r io.Reader) (name string, bits int, table []uint32, err error) {
	d, name, bits, err := open(r, productMagic)
	if err != nil {
		return "", 0, nil, err
	}
	table = d.RawU32s(bitutil.NumPairs(bits))
	if err := d.Err(); err != nil {
		return "", 0, nil, fmt.Errorf("lut: AMLUTv1 payload: %w", err)
	}
	return name, bits, table, nil
}

// WriteTables serializes a gradient-table pair.
func WriteTables(w io.Writer, t *gradient.Tables) error {
	bitutil.CheckWidth(t.Bits)
	n := bitutil.NumPairs(t.Bits)
	if len(t.DW) != n || len(t.DX) != n {
		return fmt.Errorf("lut: gradient tables have %d/%d entries, want %d", len(t.DW), len(t.DX), n)
	}
	if t.HWS < 0 || t.HWS > math.MaxUint16 {
		return fmt.Errorf("lut: HWS %d out of range", t.HWS)
	}
	e, err := header(t.Name, t.Bits)
	if err != nil {
		return err
	}
	e.U16(uint16(t.HWS))
	e.RawF32s(t.DW)
	e.RawF32s(t.DX)
	_, err = w.Write(wire.Seal(gradientMagic, e.B))
	return err
}

// ReadTables deserializes a gradient-table pair.
func ReadTables(r io.Reader) (*gradient.Tables, error) {
	d, name, bits, err := open(r, gradientMagic)
	if err != nil {
		return nil, err
	}
	t := &gradient.Tables{Name: name, Bits: bits, HWS: int(d.U16())}
	t.DW = d.RawF32s(bitutil.NumPairs(bits))
	t.DX = d.RawF32s(bitutil.NumPairs(bits))
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("lut: AMGRDv1 payload: %w", err)
	}
	return t, nil
}

// header starts a record body with the fields both formats share: the
// name and the operand width.
func header(name string, bits int) (*wire.Enc, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("lut: name too long (%d bytes)", len(name))
	}
	e := &wire.Enc{}
	e.U16(uint16(len(name)))
	e.B = append(e.B, name...)
	e.U8(uint8(bits))
	return e, nil
}

// open reads a whole record, checks its envelope and the shared header,
// and returns a decoder over the rest.
func open(r io.Reader, magic string) (d *wire.Dec, name string, bits int, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, "", 0, fmt.Errorf("lut: %w", err)
	}
	body, err := wire.Open(raw, magic)
	if err != nil {
		return nil, "", 0, fmt.Errorf("lut: %w", err)
	}
	d = &wire.Dec{B: body}
	l := int(d.U16())
	if l > maxNameLen {
		return nil, "", 0, fmt.Errorf("lut: name length %d exceeds the limit %d", l, maxNameLen)
	}
	name = string(d.Raw(l))
	bits = int(d.U8())
	if d.Failed() {
		return nil, "", 0, fmt.Errorf("lut: truncated header")
	}
	if bits < 1 || bits > bitutil.MaxBits {
		return nil, "", 0, fmt.Errorf("lut: invalid bit width %d", bits)
	}
	return d, name, bits, nil
}
