package nn

import (
	"math"
	"sync"
	"sync/atomic"

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
// best) into repeated hits on one padded 512 B row that stays L1
// resident. The kernels therefore work on the k-major operand matrix
// xT (k x rows), whose row-scan direction is contiguous — the layout
// ApproxConv2D's im2col writes and its col2im reads, so the
// convolution never transposes. Accumulation happens in int32 whenever
// the LUT's largest product times k provably fits (always true for
// B <= 7 and every realistic k at B = 8), and every scratch buffer
// lives in a reusable KernelScratch arena so steady-state steps
// allocate nothing.
//
// There is one kernel family: forwardT and backwardT (kernels_backward.go)
// run the tier their dispatch ladder (tiers.go) selects; both take xT
// and address the output-side matrices — y, dy — as NCHW planes of hw
// positions per (image, channel). Every layer calls them through
// ApproxConv2D (ApproxLinear is its 1x1 case). The exported
// ForwardGEMM, BackwardGEMM and BackwardSweep, which no layer calls,
// take the same k-major operand and input gradient and pass hw = 1,
// under which the plane layout is the row-major (rows x outC) matrix:
// the GEMM they time is the one a layer runs. Only the reference
// kernels (kernels_ref.go) read a row-major (rows x k) operand.
//
// Bit-exactness with the reference kernels is guaranteed by
// construction: the integer forward accumulation is order-independent,
// and the backward float accumulations keep the reference summands and
// per-destination accumulation order (ascending r for weight
// gradients, ascending oc for input gradients), so the equivalence
// tests can require exact equality. See kernel_equiv_test.go.

// Blocking parameters. fwdRowTile rows of a fwdKTile-deep operand
// tile occupy 16 KiB — half a typical L1d — leaving room for the hot
// LUT rows and accumulators; transTile is the square tile of
// transposeU8Tiles.
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
	// Forward: per-channel dequantization constants of Eq. (8) (its level
	// sums live with the weights, in weightSide, and with the rows, in the
	// worker's fwdTile); kzz also carries the dead columns' share.
	zw  []int64
	ss  []float32
	kzz []int64
	// tiles are the forward tiles forwardT holds while its row blocks
	// run, one per goroutine that can run a block at once (see fwdTiles).
	tiles []*fwdTile
	// Backward: per-channel scales.
	swc []float32
	zwc []float32
	// Backward big tiers (kernels_backward.go): one scan of dy produces
	// gsT[oc][r] = dy[r][oc]*s_w[oc], the pre-scaled gradients of the dX
	// sweep, and dyR, dy as a row-major (rows x outC) matrix, whose rows
	// the dW sweep loads as vectors. dwT (k x outC) receives the dW
	// sweep's lanes; woff is the fused row's k-major (k x outC) table of
	// padded-row offsets wq*padStride, filled per column block by
	// whichever sweep reads it; on the dW side dyR, dwT and woff have a
	// row stride of at least dwLanes (see scanGrad). The affine row reads
	// dwLev, its dW level table, one float per uint8 level
	// (affineDWPrep), and dxV, its (outC x k) dX operands, filled per
	// column block (bwdDXAffine).
	gsT   []float32
	dyR   []float32
	dwT   []float32
	dxV   []float32
	dwLev []float32
	woff  []int32
	// Backward small tier: per-channel lists of the nonzero gradients.
	nz nonzeros
	// Backward: where the parameter gradients go, per slice of the rows.
	grads gradCuts
	// The exported GEMMs only: the weight-side state they derive, on
	// every call, from the levels they are handed (a layer keeps its own
	// per weight version).
	w weightSide
	// Reusable RangeRunner bodies for the pool dispatches on the step
	// hot path (kernels_runners.go) — kept in the arena so passing
	// &s.<runner> to the *On scheduling entry points allocates nothing.
	sumRun     levelSumRun
	qcRun      quantClipRun
	maskRun    clipMaskRun
	fwdRun     fwdTileRun
	pairRun    pairStreamRun
	tU8Run     transU8Run
	gradRun    bwdGradRun
	dyRRun     bwdDyRRun
	dwRun      bwdDWRun
	dxRun      bwdDXRun
	smallRun   bwdSmallRun
	deadRun    bwdDeadRun
	deadSumRun deadSumRun
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

// fwdTile holds one worker's private forward state: the (nK x nR)
// operand tile, its per-row level sums, and the accumulators, so
// concurrent row blocks never share accumulators. cx and accT belong to
// the skinny row (kernels_arith.go): the tile's per-row coefficient
// stream and the (nR x padLanes(outC)) accumulator its channel lanes
// store to. busy is set while a row block runs on the tile.
type fwdTile struct {
	xt    []uint8
	sumX  []int64
	acc32 []int32
	acc64 []int64
	cx    []uint8
	accT  []int32
	busy  atomic.Bool
}

// fwdTiles holds the forward tiles no GEMM is running on. forwardT
// takes one per goroutine that can run its row blocks at once
// (tensor.Participants) and sizes each for the GEMM before the job
// starts, so how many tiles a process creates and how large they grow
// follows from the shapes it runs, not from which core ran which block
// when: steady-state steps allocate nothing, and a step allocates the
// same bytes on every run. The tiles stay for the process.
var fwdTiles struct {
	sync.Mutex
	free []*fwdTile
}

// holdTiles moves n tiles from fwdTiles into t.s.tiles, creating any the
// free list lacks, and sizes each for every row block of t: at most
// fwdRowTile rows at the tier's stride, at most fwdKTile k-steps.
func (t *fwdTileRun) holdTiles(n int) {
	s := t.s
	fwdTiles.Lock()
	rest := max(len(fwdTiles.free)-n, 0)
	s.tiles = append(s.tiles, fwdTiles.free[rest:]...)
	clear(fwdTiles.free[rest:])
	fwdTiles.free = fwdTiles.free[:rest]
	fwdTiles.Unlock()
	for len(s.tiles) < n {
		s.tiles = append(s.tiles, new(fwdTile))
	}
	nR, nK := min(t.rows, fwdRowTile), min(t.k, fwdKTile)
	ld := t.tier.stride(nR)
	for _, tl := range s.tiles {
		tl.xt = grow(tl.xt, fwdKTile*ld)
		tl.sumX = grow(tl.sumX, nR)
		if t.use32 {
			tl.acc32 = grow(tl.acc32, t.outC*ld)
		} else {
			tl.acc64 = grow(tl.acc64, t.outC*ld)
		}
		if t.tier.fit != nil {
			t.tier.fit(t, tl, nR, nK)
		}
	}
}

// releaseTiles returns s.tiles to fwdTiles in the order holdTiles took
// them.
func (s *KernelScratch) releaseTiles() {
	fwdTiles.Lock()
	fwdTiles.free = append(fwdTiles.free, s.tiles...)
	fwdTiles.Unlock()
	clear(s.tiles)
	s.tiles = s.tiles[:0]
}

// ForwardGEMM is the blocked counterpart of ForwardGEMMRef on the
// layers' operand: xT is the k-major (k x rows) operand matrix, and dst
// receives the (rows x outC) result — forwardT at hw = 1. s may be nil
// for one-off calls (a temporary arena is then used). No layer calls
// it; it stays for the callers that time the GEMM alone,
// bench/retrain.go's kernelMetrics and cmd/benchkernels.
func (op *Op) ForwardGEMM(s *KernelScratch, dst []float32, xT, wq []uint8, rows, outC, k int, pw []quant.Params, px quant.Params, bias []float32) {
	if len(dst) != rows*outC || len(xT) != k*rows {
		panic("nn: ForwardGEMM operand or destination has wrong size")
	}
	if s == nil {
		s = &KernelScratch{}
	}
	s.w.adopt(wq, nil, pw, outC, k)
	s.w.sumLevels(s)
	op.forwardT(s, dst, xT, &s.w, rows, 1, px, bias)
}

// forwardT is the forward GEMM of the k-major operand matrix xT
// (kl x rows) with w's view of the weights (outC x kl levels, see
// weightSide.cut). Row r is output position r%hw of image r/hw and y is
// NCHW: y[(r/hw*outC+oc)*hw + r%hw] receives DQ(sum_i AM(wq[oc][i],
// x[i][r])) + bias[oc] per Eq. (8), i over every weight column: the
// columns the view leaves out see the zero point zx in every row, so
// their share of the sum is w's per-channel constant D[oc] and their
// share of the row's level sum (n_dead*zx) is too; both are exact
// integers and join the epilogue's int64 constant.
func (op *Op) forwardT(s *KernelScratch, y []float32, xT []uint8, w *weightSide, rows, hw int, px quant.Params, bias []float32) {
	outC, kl, pw := w.outC, w.kl, w.pw
	checkPW(pw, outC)
	op.ensurePadded()

	zx := int64(px.Zero)
	d := w.deadSums(s, op, px.Zero)
	s.zw = grow(s.zw, outC)
	s.ss = grow(s.ss, outC)
	s.kzz = grow(s.kzz, outC)
	for oc := 0; oc < outC; oc++ {
		p := pwAt(pw, oc)
		s.zw[oc] = int64(p.Zero)
		s.ss[oc] = p.Scale * px.Scale
		// Eq. (8)'s k*zw*zx less zw*(n_dead*zx), the dead columns' share
		// of the row level sums, which the tiles never see.
		s.kzz[oc] = int64(kl) * s.zw[oc] * zx
		if d != nil {
			s.kzz[oc] += d[oc]
		}
	}
	// The Eq. (8) cross terms are w's per-channel level sums and the
	// per-row ones each worker takes from its operand tile. The sums over
	// kl columns decide the accumulator width: the dead columns' share is
	// added in int64.
	tier := op.forwardTier(rows, outC, kl)
	tier.count.Inc()
	s.fwdRun = fwdTileRun{op: op, s: s, y: y, xT: xT, w: w, bias: bias,
		rows: rows, outC: outC, k: kl, hw: hw, zx: zx, tier: tier, use32: op.fits32(kl)}
	if tier.setup != nil {
		tier.setup(&s.fwdRun)
	}
	s.fwdRun.holdTiles(tensor.Participants(rows, fwdRowTile))
	tensor.ParallelBlocksOn(rows, fwdRowTile, &s.fwdRun)
	s.releaseTiles()
}

// loadTile copies the (nK x nR) operand tile at k offset kb, row offset
// lo out of the k-major matrix xT (k x rows) into xt, whose columns are
// ld >= nR bytes apart — nR-byte runs, no transpose, the ld-nR rows
// after them zero — and adds each row's levels into sumX, the Eq. (8)
// cross term the epilogue needs for exactly these rows. The SIMD pass
// (loadTileBlocks) takes the whole 32-row chunks; the Go loop, which is
// also the pure-Go build's whole load, takes the rows after them, four
// columns per pass over sumX like gemmAccumTile's accumulator rows.
func loadTile(xt []uint8, sumX []int64, xT []uint8, rows, lo, nR, ld, kb, nK int) {
	r0 := loadTileBlocks(xt, sumX, xT, rows, lo, nR, ld, kb, nK)
	if r0 == ld {
		return
	}
	for i := 0; i < nK; i++ {
		copy(xt[i*ld+r0:i*ld+nR], xT[(kb+i)*rows+lo+r0:])
		clear(xt[i*ld+nR : (i+1)*ld])
	}
	sx := sumX[r0:nR]
	i := 0
	for ; i+3 < nK; i += 4 {
		c0 := xt[i*ld+r0:][:len(sx)]
		c1 := xt[(i+1)*ld+r0:][:len(sx)]
		c2 := xt[(i+2)*ld+r0:][:len(sx)]
		c3 := xt[(i+3)*ld+r0:][:len(sx)]
		for r := range sx {
			sx[r] += int64(c0[r]) + int64(c1[r]) + int64(c2[r]) + int64(c3[r])
		}
	}
	for ; i < nK; i++ {
		for r, v := range xt[i*ld+r0:][:len(sx)] {
			sx[r] += int64(v)
		}
	}
}

// loadTileBlocks sums a tile's columns into uint16 row sums before it
// widens them: a tile is at most fwdKTile columns of levels <= 255.
const _ uint16 = fwdKTile * math.MaxUint8

// packed16AccumTile is the packed16 row's tile kernel: gemmAccumTile
// on the accumulator width forwardT chose.
func packed16AccumTile(t *fwdTileRun, tl *fwdTile, nR, kb, nK int) {
	if t.use32 {
		gemmAccumTile(tl.acc32, tl.xt, t.op.lutPad16, t.w.lq, nR, t.outC, t.k, kb, nK)
	} else {
		gemmAccumTile(tl.acc64, tl.xt, t.op.lutPad16, t.w.lq, nR, t.outC, t.k, kb, nK)
	}
}

// gemmAccumTile adds one k tile into acc[oc][r]: the sum over the
// tile's nK columns of LUT[wq[oc][kb+i], xt[i][r]]. The inner gather
// loop walks a contiguous tile column, and the hoisted LUT row
// (padStride uint16 entries, uint8 index) is gathered without bounds
// checks.
func gemmAccumTile[T int32 | int64](acc []T, xt []uint8, lut16 []uint16, wq []uint8, nR, outC, k, kb, nK int) {
	for oc := 0; oc < outC; oc++ {
		accRow := acc[oc*nR : oc*nR+nR]
		wr := wq[oc*k+kb : oc*k+kb+nK]
		// Four k entries share one pass over the accumulator row,
		// quartering its load/store traffic; integer addition is
		// associative, so the grouping cannot change the result.
		i := 0
		for ; i+3 < nK; i += 4 {
			lr0 := lut16[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
			lr1 := lut16[int(wr[i+1])*padStride : int(wr[i+1])*padStride+padStride]
			lr2 := lut16[int(wr[i+2])*padStride : int(wr[i+2])*padStride+padStride]
			lr3 := lut16[int(wr[i+3])*padStride : int(wr[i+3])*padStride+padStride]
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
			lr := lut16[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
			xcol := xt[i*nR : i*nR+nR]
			for r, xv := range xcol {
				accRow[r] += T(lr[xv])
			}
		}
	}
}

// behavioralAccumTile is the behavioral row's tile kernel: gemmAccumTile
// with MulFn evaluated per MAC — the [12]-style simulation path. It
// cannot hoist LUT rows; the LUT-vs-behavioral gap is exactly what
// cmd/benchkernels' forward_lut_vs_behavioral measures.
func behavioralAccumTile(t *fwdTileRun, tl *fwdTile, nR, kb, nK int) {
	mulFn := t.op.MulFn
	for oc := 0; oc < t.outC; oc++ {
		accRow := tl.acc64[oc*nR : oc*nR+nR]
		for i, wv := range t.w.lq[oc*t.k+kb : oc*t.k+kb+nK] {
			for r, xv := range tl.xt[i*nR : i*nR+nR] {
				accRow[r] += int64(mulFn(uint32(wv), uint32(xv)))
			}
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
// dequantization to the tile rows [lo, lo+nR), whose accumulators are
// ld apart per channel, matching the reference expression exactly, and
// writes them to their NCHW positions in t.y. addConst is added to
// every accumulator before correction: the arith tier accumulates
// compensation-free strip sums and folds k*comp back here (zero for the
// LUT tiers, whose table entries already include comp).
func fwdEpilogue[T int32 | int64](t *fwdTileRun, acc []T, sumX []int64, lo, nR, ld int, addConst int64) {
	s, hw := t.s, t.hw
	for oc := 0; oc < t.outC; oc++ {
		accRow := acc[oc*ld : oc*ld+nR]
		sx := sumX[:len(accRow)]
		c0 := addConst - t.zx*t.w.sumW[oc] + s.kzz[oc]
		zw, ss, b := s.zw[oc], s.ss[oc], t.bias[oc]
		// j walks channel oc's plane of each image in turn, from
		// position lo%hw of image lo/hw: to the end of the plane, then on
		// to the next image's.
		j, p := (lo/hw*t.outC+oc)*hw+lo%hw, lo%hw
		for r, a := range accRow {
			t.y[j] = float32(ss*float32(int64(a)+c0-zw*sx[r])) + b
			j++
			if p++; p == hw {
				j, p = j+(t.outC-1)*hw, 0
			}
		}
	}
}

// BackwardGEMM is the tiered counterpart of BackwardGEMMRef on the
// layers' operands (see tiers.go for the dispatch ladder; every tier is
// bit-exact with the reference): backwardT at hw = 1 on the k-major
// (k x rows) operand matrix xT and its clip flags xClip. It writes the
// weight gradient into dw (outC x k), the k-major input gradient into
// dxT (k x rows), clip-masked unless xClip is nil, and the per-channel
// column sums of the (rows x outC) dy into gsum (outC) — the bias
// gradient, folded into the kernels' one scan of dy. s may be nil for
// one-off calls. Like ForwardGEMM it is kept for bench/retrain.go's
// kernelMetrics and cmd/benchkernels; no layer calls it.
func (op *Op) BackwardGEMM(s *KernelScratch, dw, dxT, gsum, dy []float32, xT, wq []uint8, xClip, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	if len(dw) != outC*k || len(dxT) != k*rows || len(gsum) != outC || len(xT) != k*rows {
		panic("nn: BackwardGEMM operand or destination has wrong size")
	}
	if s == nil {
		s = &KernelScratch{}
	}
	// backwardT adds into dw and gsum. Starting them at −0 makes that a
	// write: −0 + x is x for every x, +0 and −0 included.
	negZero := float32(math.Copysign(0, -1))
	for i := range dw {
		dw[i] = negZero
	}
	for i := range gsum {
		gsum[i] = negZero
	}
	s.w.adopt(wq, wClip, pw, outC, k)
	s.grads.whole(rows, dw, gsum)
	op.backwardT(s, dxT, dy, 1, xT, &s.w, rows, px)
	if xClip != nil {
		s.maskClipped(dxT, xClip)
	}
}

// sparseGrad is the small-tier gate: at most a quarter of the upstream
// gradient is nonzero — the most a 2x2 max pool passes back, so true
// behind conv -> ReLU -> pool and never behind a batch norm, whose
// backward is dense. The small path pays per nonzero gradient and
// skips zeros whole; the big tiers pay per row whatever dy holds
// (BENCH_kernels.json, Kernel_Bwd{Small,Fused}_* pairs, re-derived
// against the fused tier at the gather rate: small still 1.1-1.2x ahead
// of fused at one nonzero in eight and in four, 1.4-1.8x behind on a
// dense dy, at outC 4, 8 and 16 alike). A dense dy ends the scan after
// a quarter of it. When the gate passes, nnz is the number of nonzeros
// in dy, the size of the lists the small paths build (nonzeros.build).
func sparseGrad(dy []float32) (nnz int, ok bool) {
	nnz = countNonzero(dy, len(dy)/4)
	return nnz, nnz <= len(dy)/4
}

// countNonzero counts the nonzero entries of dy, stopping at the first
// one past limit.
func countNonzero(dy []float32, limit int) int {
	n := 0
	for _, g := range dy {
		if g != 0 {
			if n++; n > limit {
				break
			}
		}
	}
	return n
}

// transposeU8Tiles moves columns [lo, hi) of the (rows x cols) matrix
// src into dst in (cols x rows) layout, its rows ld >= rows apart (the
// bytes past rows untouched), in cache-sized tiles. The bulk
// moves through 8x8 byte blocks held in uint64 registers
// (transpose8x8), turning 64 single-byte load/store pairs into 16
// word-sized memory operations plus shifts. The full-matrix entry
// point is KernelScratch.transposeU8.
func transposeU8Tiles(dst, src []uint8, rows, cols, ld, lo, hi int) {
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
					putLeU64(dst[(i+j)*ld+r:], v[j])
				}
			}
			for ; r < rhi; r++ {
				row := src[r*cols:]
				for j := 0; j < 8; j++ {
					dst[(i+j)*ld+r] = row[i+j]
				}
			}
		}
		for ; i < hi; i++ {
			for r := rb; r < rhi; r++ {
				dst[i*ld+r] = src[r*cols+i]
			}
		}
	}
}
