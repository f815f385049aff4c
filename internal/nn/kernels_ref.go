package nn

import (
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// This file preserves the original (pre-blocking) GEMM kernels as
// reference implementations. They are the oracle for the blocked
// kernels' bit-exactness tests and the baseline the benchmark harness
// (cmd/benchkernels) measures speedups against. They allocate their
// outputs and every scratch buffer per call, exactly as the training
// hot path originally did.

// ForwardGEMMRef computes flat[r][oc] = DQ(sum_k AM(wq[oc][k],
// xq[r][k])) per Eq. (8), plus bias. xq is rows x K, wq is outC x K,
// both row-major uint8 level indices, quantized with the per-tensor
// parameters pw and px.
func (op *Op) ForwardGEMMRef(xq, wq []uint8, rows, outC, k int, pw, px quant.Params, bias []float32) *tensor.Tensor {
	kernelForwardRef.Inc()
	out := tensor.New(rows, outC)
	zx := int64(px.Zero)
	zw := int64(pw.Zero)
	ss := pw.Scale * px.Scale
	kzz := int64(k) * zw * zx

	// Per-column and per-row level sums for the Eq. (8) cross terms.
	sumW := make([]int64, outC)
	for oc := 0; oc < outC; oc++ {
		var s int64
		for _, q := range wq[oc*k : (oc+1)*k] {
			s += int64(q)
		}
		sumW[oc] = s
	}
	sumX := make([]int64, rows)
	for r := 0; r < rows; r++ {
		var s int64
		for _, q := range xq[r*k : (r+1)*k] {
			s += int64(q)
		}
		sumX[r] = s
	}

	bits := uint(op.Bits)
	lut := op.LUT
	mulFn := op.MulFn
	if lut == nil && mulFn == nil {
		panic("nn: Op has neither a LUT nor a behavioral MulFn")
	}
	tensor.ParallelRows(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := xq[r*k : (r+1)*k]
			or := out.Data[r*outC : (r+1)*outC]
			for oc := 0; oc < outC; oc++ {
				wr := wq[oc*k : (oc+1)*k]
				var sy int64
				if lut != nil {
					for i, xv := range xr {
						sy += int64(lut[int(wr[i])<<bits|int(xv)])
					}
				} else {
					for i, xv := range xr {
						sy += int64(mulFn(uint32(wr[i]), uint32(xv)))
					}
				}
				acc := sy - zx*sumW[oc] - zw*sumX[r] + kzz
				or[oc] = float32(ss*float32(acc)) + bias[oc]
			}
		}
	})
	return out
}

// BackwardGEMMRef computes the LUT-gradient backward pass (Eq. 9):
//
//	dL/dw[oc][k] = sum_r dy[r][oc] * s_x * (dAM/dW - Z_x)
//	dL/dxcols[r][k] = sum_oc dy[r][oc] * s_w * (dAM/dX - Z_w)
//
// Entries whose operand was clipped during quantization receive zero
// gradient (straight-through clamping); a nil xClip leaves dxcols
// unmasked for a caller that masks itself. dy is rows x outC row-major.
func (op *Op) BackwardGEMMRef(dy []float32, xq, wq []uint8, xClip, wClip []bool,
	rows, outC, k int, pw, px quant.Params) (dw, dxcols []float32) {

	kernelBackwardRef.Inc()
	dw = make([]float32, outC*k)
	dxcols = make([]float32, rows*k)
	zx, zw := float32(px.Zero), float32(pw.Zero)
	bits := uint(op.Bits)
	gw, gx := op.Grads.DW, op.Grads.DX

	// Weight gradients: independent per output channel.
	tensor.ParallelRows(outC, func(lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			wr := wq[oc*k : (oc+1)*k]
			dwr := dw[oc*k : (oc+1)*k]
			for r := 0; r < rows; r++ {
				g := dy[r*outC+oc]
				if g == 0 {
					continue
				}
				xr := xq[r*k : (r+1)*k]
				for i, xv := range xr {
					idx := int(wr[i])<<bits | int(xv)
					dwr[i] += float32(g * (gw[idx] - zx))
				}
			}
			for i := range dwr {
				if wClip[oc*k+i] {
					dwr[i] = 0
				} else {
					dwr[i] *= px.Scale
				}
			}
		}
	})

	// Input gradients: independent per row.
	tensor.ParallelRows(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := xq[r*k : (r+1)*k]
			dxr := dxcols[r*k : (r+1)*k]
			for oc := 0; oc < outC; oc++ {
				g := dy[r*outC+oc]
				if g == 0 {
					continue
				}
				gs := g * pw.Scale
				wr := wq[oc*k : (oc+1)*k]
				for i, xv := range xr {
					idx := int(wr[i])<<bits | int(xv)
					dxr[i] += float32(gs * (gx[idx] - zw))
				}
			}
			for i := range dxr {
				if xClip != nil && xClip[r*k+i] {
					dxr[i] = 0
				}
			}
		}
	})
	return dw, dxcols
}
