// Package lut serializes the framework's lookup tables — product LUTs
// and gradient-table pairs — to a compact binary format. The paper's
// CUDA implementation keeps these tables resident in GPU shared memory
// (a 7-bit product LUT is 2^14 entries); here they are artifacts that
// can be generated once (e.g. from a slow ALS run or an external
// characterization) and shipped alongside a model.
//
// Format (little endian):
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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/gradient"
)

var (
	productMagic  = [8]byte{'A', 'M', 'L', 'U', 'T', 'v', '1', '\n'}
	gradientMagic = [8]byte{'A', 'M', 'G', 'R', 'D', 'v', '1', '\n'}
)

const maxNameLen = 1 << 12

// WriteProduct serializes a product LUT.
func WriteProduct(w io.Writer, name string, bits int, table []uint32) error {
	bitutil.CheckWidth(bits)
	if len(table) != bitutil.NumPairs(bits) {
		return fmt.Errorf("lut: product table has %d entries, want %d", len(table), bitutil.NumPairs(bits))
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("lut: name too long (%d bytes)", len(name))
	}
	var buf bytes.Buffer
	buf.Write(productMagic[:])
	writeName(&buf, name)
	buf.WriteByte(uint8(bits))
	writeU32s(&buf, table)
	return finish(w, &buf)
}

// ReadProduct deserializes a product LUT.
func ReadProduct(r io.Reader) (name string, bits int, table []uint32, err error) {
	body, err := verify(r, productMagic)
	if err != nil {
		return "", 0, nil, err
	}
	name, body, err = readName(body)
	if err != nil {
		return "", 0, nil, err
	}
	if len(body) < 1 {
		return "", 0, nil, fmt.Errorf("lut: truncated header")
	}
	bits = int(body[0])
	body = body[1:]
	if bits < 1 || bits > bitutil.MaxBits {
		return "", 0, nil, fmt.Errorf("lut: invalid bit width %d", bits)
	}
	n := bitutil.NumPairs(bits)
	if len(body) != 4*n {
		return "", 0, nil, fmt.Errorf("lut: payload is %d bytes, want %d", len(body), 4*n)
	}
	return name, bits, readU32s(body, n), nil
}

// WriteTables serializes a gradient-table pair.
func WriteTables(w io.Writer, t *gradient.Tables) error {
	bitutil.CheckWidth(t.Bits)
	n := bitutil.NumPairs(t.Bits)
	if len(t.DW) != n || len(t.DX) != n {
		return fmt.Errorf("lut: gradient tables have %d/%d entries, want %d", len(t.DW), len(t.DX), n)
	}
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("lut: name too long (%d bytes)", len(t.Name))
	}
	if t.HWS < 0 || t.HWS > math.MaxUint16 {
		return fmt.Errorf("lut: HWS %d out of range", t.HWS)
	}
	var buf bytes.Buffer
	buf.Write(gradientMagic[:])
	writeName(&buf, t.Name)
	buf.WriteByte(uint8(t.Bits))
	var h [2]byte
	binary.LittleEndian.PutUint16(h[:], uint16(t.HWS))
	buf.Write(h[:])
	writeF32s(&buf, t.DW)
	writeF32s(&buf, t.DX)
	return finish(w, &buf)
}

// ReadTables deserializes a gradient-table pair.
func ReadTables(r io.Reader) (*gradient.Tables, error) {
	body, err := verify(r, gradientMagic)
	if err != nil {
		return nil, err
	}
	name, body, err := readName(body)
	if err != nil {
		return nil, err
	}
	if len(body) < 3 {
		return nil, fmt.Errorf("lut: truncated header")
	}
	bits := int(body[0])
	hws := int(binary.LittleEndian.Uint16(body[1:3]))
	body = body[3:]
	if bits < 1 || bits > bitutil.MaxBits {
		return nil, fmt.Errorf("lut: invalid bit width %d", bits)
	}
	n := bitutil.NumPairs(bits)
	if len(body) != 8*n {
		return nil, fmt.Errorf("lut: payload is %d bytes, want %d", len(body), 8*n)
	}
	return &gradient.Tables{
		Name: name, Bits: bits, HWS: hws,
		DW: readF32s(body, n), DX: readF32s(body[4*n:], n),
	}, nil
}

// writeU32s bulk-encodes a uint32 slice as one little-endian byte run
// (a single Write per table instead of one per entry).
func writeU32s(buf *bytes.Buffer, vals []uint32) {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	buf.Write(b)
}

func writeF32s(buf *bytes.Buffer, vals []float32) {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	buf.Write(b)
}

// readU32s bulk-decodes n little-endian uint32 values from body.
func readU32s(body []byte, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(body[4*i:])
	}
	return out
}

func readF32s(body []byte, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return out
}

func writeName(buf *bytes.Buffer, name string) {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(name)))
	buf.Write(l[:])
	buf.WriteString(name)
}

func readName(body []byte) (string, []byte, error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("lut: truncated name length")
	}
	l := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if l > maxNameLen || len(body) < l {
		return "", nil, fmt.Errorf("lut: truncated name (%d bytes claimed)", l)
	}
	return string(body[:l]), body[l:], nil
}

// finish appends the checksum and writes the record out.
func finish(w io.Writer, buf *bytes.Buffer) error {
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(c[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// verify reads a whole record, checks magic and CRC, and returns the
// body between them.
func verify(r io.Reader, magic [8]byte) ([]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lut: %w", err)
	}
	if len(raw) < len(magic)+4 {
		return nil, fmt.Errorf("lut: record too short (%d bytes)", len(raw))
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return nil, fmt.Errorf("lut: bad magic %q", raw[:8])
	}
	payload, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("lut: checksum mismatch")
	}
	return payload[8:], nil
}
