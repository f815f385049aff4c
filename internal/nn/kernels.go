package nn

import (
	"math"
	"sync"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// This file implements the cache-blocked, allocation-free approximate
// GEMM kernels that replace the naive reference kernels
// (kernels_ref.go) on the training hot path.
//
// The key observation is that one operand of every LUT gather is a
// weight level that stays fixed while the GEMM scans rows: hoisting
// the LUT row for that weight turns the gather stream from random
// accesses into a full 2^(2B)-entry table (256 KiB at 8 bits, L2 at
// best) into repeated hits on one padded 1 KiB row that stays L1
// resident. Operand tiles are transposed so the row-scan direction is
// contiguous, accumulation happens in int32 whenever the LUT's largest
// product times k provably fits (always true for B <= 7 and every
// realistic k at B = 8), and every scratch buffer lives in a reusable
// KernelScratch arena so steady-state steps allocate nothing.
//
// Bit-exactness with the reference kernels is guaranteed by
// construction: the integer forward accumulation is order-independent,
// and the backward float accumulations keep the reference summands and
// per-destination accumulation order (ascending r for weight
// gradients, ascending oc for input gradients), so the equivalence
// tests can require exact equality. See kernel_equiv_test.go.

// Blocking parameters. fwdRowTile rows of a fwdKTile-wide operand
// tile occupy 16 KiB — half a typical L1d — leaving room for the hot
// LUT rows and accumulators; transTile is the square tile of the
// operand transposes.
const (
	fwdRowTile = 64
	fwdKTile   = 256
	transTile  = 64
)

// KernelScratch is the reusable buffer arena for the blocked kernels.
// Each layer owns one; buffers grow on first use and are reused for
// every subsequent step, so the kernels allocate nothing in steady
// state. The zero value is ready to use.
type KernelScratch struct {
	// Forward: per-channel dequantization constants and Eq. (8) cross
	// terms.
	zw   []int64
	ss   []float32
	kzz  []int64
	sumW []int64
	sumX []int64
	// Backward: per-channel scales and the operand/gradient transposes
	// (xT and dxT are k x rows, dyT is outC x rows).
	swc []float32
	zwc []float32
	xT  []uint8
	dyT []float32
	dxT []float32
	// Backward tier state (kernels_backward.go): gsT holds the
	// pre-scaled gradients gsT[oc][r] = dy[r][oc]*s_w[oc] the dW sweep
	// produces for the dX sweep; awk/bwk (outC x k) and axk/bxk
	// (k x outC) are the gathered per-(oc,i) affine coefficients;
	// woffW/woffX are the padded-row offsets wq*padStride the gather
	// kernels index with.
	gsT   []float32
	awk   []float32
	bwk   []float32
	axk   []float32
	bxk   []float32
	woffW []int32
	woffX []int32
	// Arith pair tier: the per-call VPMADDUBSW coefficient stream
	// (outC x ceil(k/2) x nT byte pairs), built once per ForwardGEMM
	// and shared read-only by every row-block worker.
	cwp []uint8
	// Reusable RangeRunner bodies for the pool dispatches on the step
	// hot path (kernels_runners.go) — kept in the arena so passing
	// &s.<runner> to the *On scheduling entry points allocates nothing.
	sumRun   levelSumRun
	qcRun    quantClipRun
	maskRun  clipMaskRun
	fwdB16   fwdBlockedRun[uint16]
	fwdB32   fwdBlockedRun[uint32]
	arithRun arithFwdRun
	tU8Run   transU8Run
	tF32Run  transF32Run
	dwRun    bwdDWRun
	dxRun    bwdDXRun
	toutRun  bwdTransOutRun
	sdwRun   bwdSmallDWRun
	sdxRun   bwdSmallDXRun
}

// grow returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		noteGrow(cap(s), n, elemSize[T]())
		return make([]T, n)
	}
	return s[:n]
}

// fwdTile holds one worker's private forward accumulators. Tiles are
// pooled so concurrent row blocks never share accumulators and
// steady-state steps still allocate nothing.
type fwdTile struct {
	xt    []uint8
	acc32 []int32
	acc64 []int64
}

var fwdTilePool = sync.Pool{New: func() any { return new(fwdTile) }}

// ForwardGEMM is the blocked counterpart of ForwardGEMMRef, writing
// the (rows x outC) result into dst. s may be nil for one-off calls
// (a temporary arena is then used).
func (op *Op) ForwardGEMM(s *KernelScratch, dst []float32, xq, wq []uint8, rows, outC, k int, pw []quant.Params, px quant.Params, bias []float32) {
	checkPW(pw, outC)
	if len(dst) != rows*outC {
		panic("nn: ForwardGEMM destination has wrong size")
	}
	if s == nil {
		s = &KernelScratch{}
	}
	op.ensurePadded()

	zx := int64(px.Zero)
	s.zw = grow(s.zw, outC)
	s.ss = grow(s.ss, outC)
	s.kzz = grow(s.kzz, outC)
	for oc := 0; oc < outC; oc++ {
		p := pwAt(pw, oc)
		s.zw[oc] = int64(p.Zero)
		s.ss[oc] = p.Scale * px.Scale
		s.kzz[oc] = int64(k) * s.zw[oc] * zx
	}

	// Eq. (8) cross terms: per-column and per-row level sums.
	s.sumW = grow(s.sumW, outC)
	s.levelSums(s.sumW, wq, outC, k)
	s.sumX = grow(s.sumX, rows)
	s.levelSums(s.sumX, xq, rows, k)

	// int32 accumulation is safe when the worst-case row sum fits (see
	// forwardPath, which applies the same gate to the tier choice).
	use32 := uint64(op.lutMax)*uint64(k) <= math.MaxInt32
	switch path := op.forwardPath(rows, k); path {
	case FwdPathBehavioral:
		if op.MulFn == nil {
			panic("nn: Op has neither a LUT nor a behavioral MulFn")
		}
		kernelForwardBehavioral.Inc()
		op.forwardBehavioral(s, dst, xq, wq, rows, outC, k, px, bias)
	case FwdPathArith:
		kernelForwardArith.Inc()
		op.forwardArith(s, dst, xq, wq, rows, outC, k, bias, zx)
	case FwdPathPacked16:
		kernelForwardPacked16.Inc()
		s.fwdB16 = fwdBlockedRun[uint16]{s: s, dst: dst, lutPad: op.lutPad16,
			xq: xq, wq: wq, bias: bias, outC: outC, k: k, zx: zx, use32: use32}
		tensor.ParallelBlocksOn(rows, fwdRowTile, &s.fwdB16)
	default:
		kernelForwardBlocked.Inc()
		s.fwdB32 = fwdBlockedRun[uint32]{s: s, dst: dst, lutPad: op.lutPad,
			xq: xq, wq: wq, bias: bias, outC: outC, k: k, zx: zx, use32: use32}
		tensor.ParallelBlocksOn(rows, fwdRowTile, &s.fwdB32)
	}
}

// Forward dispatch tier names, in descending preference order. They
// double as the `path` label values of the nn_kernel_dispatch_total
// metric (the backward tiers are the BwdPath* constants in
// kernels_backward.go, the reference kernels "ref").
const (
	// FwdPathArith is the closed-form strip-arithmetic SIMD tier
	// (mask-family multipliers on AVX2 hosts; see arith.go).
	FwdPathArith = "arith"
	// FwdPathPacked16 is the blocked-LUT tier with packed uint16 rows
	// (any op whose largest product fits uint16).
	FwdPathPacked16 = "packed16"
	// FwdPathBlocked is the blocked-LUT tier with uint32 rows (the PR 2
	// kernel; ops with products beyond uint16).
	FwdPathBlocked = "blocked"
	// FwdPathBehavioral evaluates MulFn per MAC (ops without a LUT).
	FwdPathBehavioral = "behavioral"
)

// forwardTierOverride forces ForwardGEMM onto a specific dispatch tier
// when the op supports it (falling back to automatic selection when it
// does not) — a test/bench hook like backwardTierOverride, not part of the
// API. Write it only from single-threaded setup code.
var forwardTierOverride = ""

// SetForwardTierOverride forces ForwardGEMM onto the given dispatch
// tier (one of the FwdPath* constants) whenever an op supports it,
// falling back to automatic selection when it does not. The empty
// string restores automatic selection. A benchmark-harness hook (see
// cmd/benchkernels): call it only from single-threaded setup code,
// never during concurrent GEMMs.
func SetForwardTierOverride(tier string) { forwardTierOverride = tier }

// ForwardPath reports which dispatch tier ForwardGEMM will use for a
// GEMM of the given row count and reduction depth — `rows` gates the
// SIMD tier's 32-row chunking, `k` the int32 accumulator. The benchmark
// harness prints it next to each measurement.
func (op *Op) ForwardPath(rows, k int) string {
	op.ensurePadded()
	return op.forwardPath(rows, k)
}

func (op *Op) forwardPath(rows, k int) string {
	if op.lutPad == nil && op.lutPad16 == nil {
		return FwdPathBehavioral
	}
	// int32 accumulation is safe when the worst-case row sum fits;
	// lutMax*k also bounds the true sum for every smaller operand (and
	// bounds the arith tier's comp-free sums, since stripMax <= lutMax).
	use32 := uint64(op.lutMax)*uint64(k) <= math.MaxInt32
	arithOK := op.arith != nil && hasGemmAsm && use32 && rows >= 32
	switch forwardTierOverride {
	case FwdPathArith:
		if arithOK {
			return FwdPathArith
		}
	case FwdPathPacked16:
		if op.lutPad16 != nil {
			return FwdPathPacked16
		}
	case FwdPathBlocked:
		if op.lutPad != nil {
			return FwdPathBlocked
		}
	}
	if arithOK {
		return FwdPathArith
	}
	if op.lutPad16 != nil {
		return FwdPathPacked16
	}
	return FwdPathBlocked
}

// gemmAccumTiles accumulates acc[oc][r] = sum_i LUT[wq[oc][i], xq[lo+r][i]]
// over k tiles. The operand tile is transposed once per k tile so the
// inner gather loop walks contiguous memory, and the hoisted LUT row
// (padStride entries, uint8 index) is gathered without bounds checks.
// E is the padded-row element: packed uint16 rows keep the hot row at
// 512 B of L1 (the packed16 tier), uint32 rows carry products beyond
// uint16 (the blocked tier).
func gemmAccumTiles[T int32 | int64, E uint16 | uint32](acc []T, xt []uint8, lutPad []E, xq, wq []uint8, lo, nR, outC, k int) {
	for i := range acc {
		acc[i] = 0
	}
	for kb := 0; kb < k; kb += fwdKTile {
		nK := k - kb
		if nK > fwdKTile {
			nK = fwdKTile
		}
		transposeTileU8(xt, xq, lo, nR, kb, nK, k)
		for oc := 0; oc < outC; oc++ {
			accRow := acc[oc*nR : oc*nR+nR]
			wr := wq[oc*k+kb : oc*k+kb+nK]
			// Four k entries share one pass over the accumulator row,
			// quartering its load/store traffic; integer addition is
			// associative, so the grouping cannot change the result.
			i := 0
			for ; i+3 < nK; i += 4 {
				lr0 := lutPad[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
				lr1 := lutPad[int(wr[i+1])*padStride : int(wr[i+1])*padStride+padStride]
				lr2 := lutPad[int(wr[i+2])*padStride : int(wr[i+2])*padStride+padStride]
				lr3 := lutPad[int(wr[i+3])*padStride : int(wr[i+3])*padStride+padStride]
				x0 := xt[i*nR : i*nR+nR]
				x1 := xt[(i+1)*nR : (i+1)*nR+nR][:len(x0)]
				x2 := xt[(i+2)*nR : (i+2)*nR+nR][:len(x0)]
				x3 := xt[(i+3)*nR : (i+3)*nR+nR][:len(x0)]
				ar := accRow[:len(x0)]
				for r, xv := range x0 {
					ar[r] += T(lr0[xv]) + T(lr1[x1[r]]) + T(lr2[x2[r]]) + T(lr3[x3[r]])
				}
			}
			for ; i < nK; i++ {
				lr := lutPad[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
				xcol := xt[i*nR : i*nR+nR]
				for r, xv := range xcol {
					accRow[r] += T(lr[xv])
				}
			}
		}
	}
}

// transposeTileU8 writes the (nR x nK) operand tile starting at row lo,
// column kb of the (rows x k) matrix xq into xt in (nK x nR) layout.
// The bulk moves through 8x8 byte blocks held in uint64 registers
// (transpose8x8), turning 64 single-byte load/store pairs into 16
// word-sized memory operations plus shifts — the naive byte loop was a
// quarter of the whole forward kernel.
func transposeTileU8(xt, xq []uint8, lo, nR, kb, nK, k int) {
	r := 0
	for ; r+7 < nR; r += 8 {
		i := 0
		for ; i+7 < nK; i += 8 {
			var v [8]uint64
			for j := 0; j < 8; j++ {
				v[j] = leU64(xq[(lo+r+j)*k+kb+i:])
			}
			transpose8x8(&v)
			for j := 0; j < 8; j++ {
				putLeU64(xt[(i+j)*nR+r:], v[j])
			}
		}
		for ; i < nK; i++ {
			col := xt[i*nR+r : i*nR+r+8]
			for j := range col {
				col[j] = xq[(lo+r+j)*k+kb+i]
			}
		}
	}
	for ; r < nR; r++ {
		row := xq[(lo+r)*k+kb : (lo+r)*k+kb+nK]
		for i, v := range row {
			xt[i*nR+r] = v
		}
	}
}

// transpose8x8 transposes an 8x8 byte matrix held as 8 little-endian
// uint64 rows, by butterfly exchanges at byte distance 4, 2, 1 (the
// Hacker's Delight bit-matrix transpose with bytes as the unit).
func transpose8x8(v *[8]uint64) {
	for j := 0; j < 4; j++ {
		t := ((v[j] >> 32) ^ v[j+4]) & 0x00000000FFFFFFFF
		v[j] ^= t << 32
		v[j+4] ^= t
	}
	for _, j := range [4]int{0, 1, 4, 5} {
		t := ((v[j] >> 16) ^ v[j+2]) & 0x0000FFFF0000FFFF
		v[j] ^= t << 16
		v[j+2] ^= t
	}
	for j := 0; j < 8; j += 2 {
		t := ((v[j] >> 8) ^ v[j+1]) & 0x00FF00FF00FF00FF
		v[j] ^= t << 8
		v[j+1] ^= t
	}
}

func leU64(b []uint8) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []uint8, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// fwdEpilogue applies the Eq. (8) zero-point corrections and
// dequantization, matching the reference expression exactly. addConst
// is added to every accumulator before correction: the arith tier
// accumulates compensation-free strip sums and folds k*comp back here
// (zero for the LUT tiers, whose table entries already include comp).
func fwdEpilogue[T int32 | int64](dst []float32, acc []T, s *KernelScratch, bias []float32, lo, nR, outC int, zx, addConst int64) {
	for r := 0; r < nR; r++ {
		or := dst[(lo+r)*outC : (lo+r+1)*outC]
		sx := s.sumX[lo+r]
		for oc := range or {
			a := int64(acc[oc*nR+r]) + addConst - zx*s.sumW[oc] - s.zw[oc]*sx + s.kzz[oc]
			or[oc] = s.ss[oc]*float32(a) + bias[oc]
		}
	}
}

// forwardBehavioral evaluates MulFn per MAC — the [12]-style simulation
// path. It shares the scratch arena and pool scheduling but cannot
// hoist LUT rows; the LUT-vs-behavioral gap is exactly what
// BenchmarkKernel_BehavioralVsLUTForward measures.
func (op *Op) forwardBehavioral(s *KernelScratch, dst []float32, xq, wq []uint8, rows, outC, k int, px quant.Params, bias []float32) {
	mulFn := op.MulFn
	zx := int64(px.Zero)
	tensor.ParallelRows(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := xq[r*k : (r+1)*k]
			or := dst[r*outC : (r+1)*outC]
			for oc := 0; oc < outC; oc++ {
				wr := wq[oc*k : (oc+1)*k]
				var sy int64
				for i, xv := range xr {
					sy += int64(mulFn(uint32(wr[i]), uint32(xv)))
				}
				acc := sy - zx*s.sumW[oc] - s.zw[oc]*s.sumX[r] + s.kzz[oc]
				or[oc] = s.ss[oc]*float32(acc) + bias[oc]
			}
		}
	})
}

// BackwardGEMM is the tiered counterpart of BackwardGEMMRef (see
// kernels_backward.go for the dispatch: affine > mixed > fused >
// small, every tier bit-exact with the reference). It writes the
// weight gradient into dw (outC x k), the patch-matrix input gradient
// into dxcols (rows x k), and the per-channel column sums of dy into
// gsum (outC) — the bias gradient, folded into the dW sweep so the
// layers need no separate scalar accumulation pass. A nil xClip leaves
// dxcols unmasked: the caller applies the straight-through mask itself
// (ApproxConv2D does, once per input element after col2im). s may be
// nil for one-off calls.
func (op *Op) BackwardGEMM(s *KernelScratch, dw, dxcols, gsum, dy []float32, xq, wq []uint8, xClip, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	checkPW(pw, outC)
	if len(dw) != outC*k || len(dxcols) != rows*k || len(gsum) != outC {
		panic("nn: BackwardGEMM destination has wrong size")
	}
	if s == nil {
		s = &KernelScratch{}
	}
	op.ensurePadded()
	path := op.backwardPath(dy)
	if path == BwdPathSmall {
		kernelBackwardSmall.Inc()
		op.backwardSmall(s, dw, dxcols, gsum, dy, xq, wq, xClip, wClip, rows, outC, k, pw, px)
		return
	}
	noteBackwardPath(path)
	op.backwardBig(path, s, dw, dxcols, gsum, dy, xq, wq, xClip, wClip, rows, outC, k, pw, px)
}

// sparseGrad is the small-tier gate: at most a quarter of the upstream
// gradient is nonzero — the most a 2x2 max pool passes back, so true
// behind conv -> ReLU -> pool and never behind a batch norm, whose
// backward is dense. The small path pays per nonzero gradient and
// skips zeros whole; the big tiers pay per row whatever dy holds
// (BENCH_kernels.json: small 1.6-2.1x ahead of fused at one nonzero in
// eight, about level at one in four, 2.1-2.5x behind on a dense dy, at
// outC 4 and 8 alike). A dense dy ends the scan after a quarter of it.
func sparseGrad(dy []float32) bool {
	budget := len(dy) / 4
	for _, g := range dy {
		if g != 0 {
			if budget--; budget < 0 {
				return false
			}
		}
	}
	return true
}

// backwardSmall is the reference-shaped backward used for sparse
// gradients (see sparseGrad): the same loops as BackwardGEMMRef (hence bit-exact
// with it by construction) writing into the caller's buffers, plus the
// folded gsum accumulation. The g == 0 test hoisted per (r, oc) skips
// whole k walks, which the column-blocked kernel cannot do.
func (op *Op) backwardSmall(s *KernelScratch, dw, dxcols, gsum, dy []float32, xq, wq []uint8, xClip, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	s.sdwRun = bwdSmallDWRun{op: op, dw: dw, gsum: gsum, dy: dy, xq: xq, wq: wq,
		wClip: wClip, rows: rows, outC: outC, k: k, zx: float32(px.Zero), scale: px.Scale}
	tensor.ParallelRowsOn(outC, &s.sdwRun)

	s.sdxRun = bwdSmallDXRun{op: op, dxcols: dxcols, dy: dy, xq: xq, wq: wq,
		xClip: xClip, pw: pw, outC: outC, k: k}
	tensor.ParallelRowsOn(rows, &s.sdxRun)
}

// transposeU8Tiles moves columns [lo, hi) of the (rows x cols) matrix
// src into dst in (cols x rows) layout, in cache-sized tiles moved
// through the same 8x8 uint64 block kernel as transposeTileU8. The
// full-matrix entry point is KernelScratch.transposeU8.
func transposeU8Tiles(dst, src []uint8, rows, cols, lo, hi int) {
	for rb := 0; rb < rows; rb += transTile {
		rhi := rb + transTile
		if rhi > rows {
			rhi = rows
		}
		i := lo
		for ; i+7 < hi; i += 8 {
			r := rb
			for ; r+7 < rhi; r += 8 {
				var v [8]uint64
				for j := 0; j < 8; j++ {
					v[j] = leU64(src[(r+j)*cols+i:])
				}
				transpose8x8(&v)
				for j := 0; j < 8; j++ {
					putLeU64(dst[(i+j)*rows+r:], v[j])
				}
			}
			for ; r < rhi; r++ {
				row := src[r*cols:]
				for j := 0; j < 8; j++ {
					dst[(i+j)*rows+r] = row[i+j]
				}
			}
		}
		for ; i < hi; i++ {
			for r := rb; r < rhi; r++ {
				dst[i*rows+r] = src[r*cols+i]
			}
		}
	}
}

// transposeF32Tiles is transposeU8Tiles for float32 matrices.
func transposeF32Tiles(dst, src []float32, rows, cols, lo, hi int) {
	for rb := 0; rb < rows; rb += transTile {
		rhi := rb + transTile
		if rhi > rows {
			rhi = rows
		}
		for r := rb; r < rhi; r++ {
			row := src[r*cols:]
			for i := lo; i < hi; i++ {
				dst[i*rows+r] = row[i]
			}
		}
	}
}
