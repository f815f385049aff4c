package nn

import (
	"fmt"
	"io"
	"math"

	"github.com/appmult/retrain/internal/wire"
)

// Checkpoint format (little endian, in wire.Seal's magic/CRC envelope):
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
const ckptMagic = "NNCKPv1\n"

// SaveParams serializes every parameter value of the model.
func SaveParams(w io.Writer, model Layer) error {
	params := model.Params()
	var e wire.Enc
	e.U32(uint32(len(params)))
	for _, p := range params {
		if len(p.Name) > math.MaxUint16 {
			return fmt.Errorf("nn: parameter name too long: %d bytes", len(p.Name))
		}
		e.U16(uint16(len(p.Name)))
		e.B = append(e.B, p.Name...)
		e.U32(uint32(p.Value.Numel()))
		e.RawF32s(p.Value.Data)
	}
	_, err := w.Write(wire.Seal(ckptMagic, e.B))
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
	body, err := wire.Open(raw, ckptMagic)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	d := wire.Dec{B: body}
	count := d.U32()
	if count > maxCkptParams {
		return fmt.Errorf("nn: implausible parameter count %d in checkpoint (limit %d)", count, maxCkptParams)
	}
	params := model.Params()
	if !d.Failed() && int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, model has %d", count, len(params))
	}
	// Stage every value first; commit only once the entire file has
	// validated, so a corrupt tail cannot leave a half-loaded model.
	staged := make([][]float32, len(params))
	for i, p := range params {
		name := string(d.Raw(int(d.U16())))
		numel := int(d.U32())
		if d.Failed() {
			break
		}
		if name != p.Name {
			return fmt.Errorf("nn: parameter %d is %q in checkpoint but %q in model", i, name, p.Name)
		}
		if numel != p.Value.Numel() {
			return fmt.Errorf("nn: parameter %q has %d values in checkpoint, %d in model", name, numel, p.Value.Numel())
		}
		staged[i] = d.RawF32s(numel)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("nn: NNCKPv1 body: %w", err)
	}
	for i, p := range params {
		copy(p.Value.Data, staged[i])
		p.Touch()
	}
	return nil
}
