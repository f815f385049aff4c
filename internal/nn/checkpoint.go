package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint format (little endian):
//
//	magic   [8]byte "NNCKPv1\n"
//	count   uint32
//	per parameter: nameLen uint16, name, numel uint32, float32 data
//	crc32   uint32 over everything before it
//
// Parameters are matched by position and validated by name and size on
// load, so a checkpoint written from a float model loads into its
// approximate twin (which shares parameter layout) as long as layer
// names line up — the same contract as CopyParams.
var ckptMagic = [8]byte{'N', 'N', 'C', 'K', 'P', 'v', '1', '\n'}

// SaveParams serializes every parameter value of the model.
func SaveParams(w io.Writer, model Layer) error {
	params := model.Params()
	var buf bytes.Buffer
	buf.Write(ckptMagic[:])
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], uint32(len(params)))
	buf.Write(c[:])
	for _, p := range params {
		if len(p.Name) > math.MaxUint16 {
			return fmt.Errorf("nn: parameter name too long: %d bytes", len(p.Name))
		}
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(p.Name)))
		buf.Write(l[:])
		buf.WriteString(p.Name)
		binary.LittleEndian.PutUint32(c[:], uint32(p.Value.Numel()))
		buf.Write(c[:])
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(c[:], math.Float32bits(v))
			buf.Write(c[:])
		}
	}
	binary.LittleEndian.PutUint32(c[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(c[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// maxCkptParams bounds the parameter count a checkpoint may claim.
// Any value past it is corruption, not a model: the largest supported
// model has a few hundred parameters.
const maxCkptParams = 1 << 20

// LoadParams restores parameter values saved by SaveParams into a model
// with an identical parameter layout. Gradients are left untouched.
//
// The whole file is validated — magic, checksum, parameter count,
// per-parameter name/size, exact length — before any value is written,
// so a truncated, oversized, or otherwise corrupt checkpoint returns a
// descriptive error and leaves the model untouched.
func LoadParams(r io.Reader, model Layer) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint: %w", err)
	}
	if len(raw) < len(ckptMagic)+8 {
		return fmt.Errorf("nn: checkpoint too short: %d bytes, need at least %d", len(raw), len(ckptMagic)+8)
	}
	if !bytes.Equal(raw[:8], ckptMagic[:]) {
		return fmt.Errorf("nn: bad checkpoint magic %q (want %q)", raw[:8], ckptMagic[:])
	}
	payload, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sum); got != want {
		return fmt.Errorf("nn: checkpoint checksum mismatch (file %08x, computed %08x)", want, got)
	}
	body := payload[8:]
	count := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if count > maxCkptParams {
		return fmt.Errorf("nn: implausible parameter count %d in checkpoint (limit %d)", count, maxCkptParams)
	}
	params := model.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, model has %d", count, len(params))
	}
	// Stage every value first; commit only once the entire file has
	// validated, so a corrupt tail cannot leave a half-loaded model.
	staged := make([][]byte, len(params))
	for i, p := range params {
		if len(body) < 2 {
			return fmt.Errorf("nn: truncated at parameter %d/%d: %d bytes left, need a name length", i, count, len(body))
		}
		nameLen := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < nameLen+4 {
			return fmt.Errorf("nn: truncated at parameter %d/%d: %d bytes left, need %d for name and size", i, count, len(body), nameLen+4)
		}
		name := string(body[:nameLen])
		body = body[nameLen:]
		if name != p.Name {
			return fmt.Errorf("nn: parameter %d is %q in checkpoint but %q in model", i, name, p.Name)
		}
		numel := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if numel != p.Value.Numel() {
			return fmt.Errorf("nn: parameter %q has %d values in checkpoint, %d in model", name, numel, p.Value.Numel())
		}
		if len(body) < 4*numel {
			return fmt.Errorf("nn: truncated data for parameter %q: %d bytes left, need %d", name, len(body), 4*numel)
		}
		staged[i] = body[:4*numel]
		body = body[4*numel:]
	}
	if len(body) != 0 {
		return fmt.Errorf("nn: %d trailing bytes in checkpoint", len(body))
	}
	for i, p := range params {
		for j := range p.Value.Data {
			p.Value.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(staged[i][4*j:]))
		}
		p.Touch()
	}
	return nil
}
