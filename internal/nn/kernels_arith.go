package nn

import (
	"encoding/binary"

	"github.com/appmult/retrain/internal/tensor"
)

// Tile kernel of the closed-form forward tier (the arith row of
// tiers.go): the same row tiling, operand tiles, and Eq. (8) epilogue
// as the LUT tier (fwdTileRun), with the per-tile accumulation handed
// to the AVX2 strip kernels in gemm_arith_amd64.s. Two kernel flavours
// share the tile loop:
//
//   - pair (VPMADDUBSW): two k-steps per multiply-add; used whenever
//     the op's coefficients fit the signed-byte operand and its strip
//     bounds rule out madd saturation (every 7-bit-or-narrower mask
//     family member, see arithForm.pairOK). Four output channels'
//     coefficient streams share one pass over the tile, which loads,
//     interleaves and masks each k-pair of columns once for the four
//     (gemmArithPair4AVX2); the channels after the last group of four
//     run one stream each.
//   - word (VPMULLW): one k-step per multiply in uint16 lanes; covers
//     the remaining mask ops (8-bit families with coefficients > 127).
//
// Both accumulate compensation-free sums; k*comp is folded back in the
// epilogue. A tile whose rows are not whole 32-row chunks is loaded
// padded with zero rows (fwdTier.pad) and the kernels run over the pad;
// each row's sum is its own, so the live rows are bit-exact with
// ForwardGEMMRef regardless of shape.
//
// The skinny row (rows < 32 <= outC) calls the same two kernels with
// the operand roles swapped, which the strip form's symmetry allows: a
// chunk is 32 output channels of the k-major weight levels
// (weightSide.wqT), masked with wm_t, and each of the few rows supplies
// the coefficients x & xm_t. wqT's channels are padded to whole chunks
// with level 0, whose lanes are dropped.

// pairGroup is how many output channels' coefficient streams
// gemmArithPair4AVX2 takes.
const pairGroup = 4

// arithSetup readies the arith row: the compensation the epilogue folds
// back and, for the pair kernel, the coefficient stream of this weight
// version.
func arithSetup(t *fwdTileRun) {
	af, w := t.op.arith, t.w
	t.kComp = int64(t.k) * int64(af.comp)
	if af.pairOK && !w.cwpOK {
		w.cwp = grow(w.cwp, t.outC*af.pairRow(t.k))
		t.s.pairRun = pairStreamRun{cwp: w.cwp, wq: w.lq, af: af, k: t.k}
		tensor.ParallelRowsOn(t.outC, &t.s.pairRun)
		w.cwpOK = true
	}
}

// arithAccumTile adds one (nK x nR) operand tile into tl.acc32 through
// the strip kernels; nR is the padded stride, whole 32-row chunks. The
// row's predicate guarantees op.arith != nil, hasGemmAsm, rows >= 32,
// and the int32 accumulator; arithSetup has built the pair stream.
func arithAccumTile(t *fwdTileRun, tl *fwdTile, nR, kb, nK int) {
	af, acc, xt := t.op.arith, tl.acc32, tl.xt
	nT := af.nT
	if af.pairOK {
		if nK&1 == 1 {
			// Odd k-step count: the pair kernel reads a virtual last
			// column whose coefficient byte is zero; zero the column
			// so the dead VPAND input is defined.
			clear(xt[nK*nR : (nK+1)*nR])
		}
		// Four channels' pair streams, a row apart, per call; the
		// channels after the last group of four one at a time.
		row, off, nKp := af.pairRow(t.k), kb/2*nT*2, int64((nK+1)/2)
		oc := 0
		for ; oc+pairGroup <= t.outC; oc += pairGroup {
			gemmArithPair4AVX2(&acc[oc*nR], &xt[0], &t.w.cwp[oc*row+off], &af.xmPair[0],
				int64(nR), nKp, int64(nT), int64(af.cadPair), int64(row))
		}
		for ; oc < t.outC; oc++ {
			gemmArithPairAVX2(&acc[oc*nR], &xt[0], &t.w.cwp[oc*row+off], &af.xmPair[0],
				int64(nR), nKp, int64(nT), int64(af.cadPair))
		}
		return
	}
	for oc := 0; oc < t.outC; oc++ {
		gemmArithAccumAVX2(&acc[oc*nR], &xt[0],
			&t.w.lq[oc*t.k+kb], &af.cw16[0], &af.xm16[0],
			int64(nR), int64(nK), int64(nT), int64(af.cadWord))
	}
}

// arithSkinnySetup readies the skinny row: the compensation and the
// k-major copy of this weight version's view of the levels, its rows
// padLanes(outC) apart. The pad channels and the zero row after the k
// columns (the pair kernel's virtual partner) hold level 0.
func arithSkinnySetup(t *fwdTileRun) {
	w := t.w
	t.kComp = int64(t.k) * int64(t.op.arith.comp)
	if !w.wqTOK {
		ld := padLanes(t.outC)
		w.wqT = grow(w.wqT, (t.k+1)*ld)
		clear(w.wqT)
		t.s.transposeU8(w.wqT, w.lq, t.outC, t.k, ld)
		w.wqTOK = true
	}
}

// arithSkinnyFit sizes the skinny row's tile buffers for an (nK x nR)
// operand tile: the (nR x padLanes(outC)) lane accumulator accT and the
// coefficient stream cx, one row's pair stream or all nR rows' levels.
func arithSkinnyFit(t *fwdTileRun, tl *fwdTile, nR, nK int) {
	tl.accT = grow(tl.accT, nR*padLanes(t.outC))
	if af := t.op.arith; af.pairOKT {
		tl.cx = grow(tl.cx, (nK+1)/2*af.nT*2+skinnyStreamSlack)
	} else {
		tl.cx = grow(tl.cx, nR*nK)
	}
}

// arithSkinnyAccumTile adds one (nK x nR) operand tile into tl.acc32
// with the kernels' lanes on output channels. Per row the kernels
// accumulate into tl.accT (nR x ld, ld = padLanes(outC)), whose first
// outC lanes are then added, transposed, into the (outC x nR)
// accumulator the epilogue reads. The row's predicate guarantees
// op.arith != nil, hasGemmAsm, nR < 32 <= outC and the int32
// accumulator; arithSkinnySetup has built wqT.
func arithSkinnyAccumTile(t *fwdTileRun, tl *fwdTile, nR, kb, nK int) {
	af, outC, xt := t.op.arith, t.outC, tl.xt
	nT, ld := af.nT, padLanes(outC)
	wT := t.w.wqT[kb*ld:]
	arithSkinnyFit(t, tl, nR, nK)
	accT := tl.accT
	clear(accT)
	if af.pairOKT {
		nKp := (nK + 1) / 2
		for r := 0; r < nR; r++ {
			skinnyPairStream(tl.cx, xt, af.xmQuad, r, nR, nK, nT)
			gemmArithPairAVX2(&accT[r*ld], &wT[0], &tl.cx[0], &af.wmPair[0],
				int64(ld), int64(nKp), int64(nT), int64(af.cadPair))
		}
	} else {
		// The word kernel looks its coefficients up by level: hand it the
		// row's nK levels, contiguous.
		for r := 0; r < nR; r++ {
			xr := tl.cx[r*nK : (r+1)*nK]
			for i := range xr {
				xr[i] = xt[i*nR+r]
			}
			gemmArithAccumAVX2(&accT[r*ld], &wT[0], &xr[0], &af.cx16[0], &af.wm16[0],
				int64(ld), int64(nK), int64(nT), int64(af.cadWord))
		}
	}
	for oc := 0; oc < outC; oc++ {
		row := tl.acc32[oc*nR : (oc+1)*nR]
		for r := range row {
			row[r] += accT[r*ld+oc]
		}
	}
}

// pairStreamRun builds the pair kernel's coefficient stream, a block of
// output channels per work item.
type pairStreamRun struct {
	cwp, wq []uint8
	af      *arithForm
	k       int
}

func (t *pairStreamRun) RunRange(lo, hi int) { buildPairStream(t.cwp, t.wq, t.af, lo, hi, t.k) }

// buildPairStream writes the pair kernel's coefficient stream of the
// output channels [lo, hi), one pairRow each: for every k-pair p, the nT
// byte pairs (cw(wq[oc][2p]), cw(wq[oc][2p+1])) in strip order, the
// virtual partner of an odd trailing k-step with coefficient zero. Built
// once per weight version (arithSetup) and shared read-only by every row
// block of every GEMM until the next.
//
// A k-pair is two 8-byte stores of the levels' spread words
// (arithForm.cwSpread), the partner's shifted into the odd bytes. Below
// eight strips the stores run past the pair's 2*nT bytes: onto the next
// pair, which is written after it, or into the row's slack. A channel's
// row is its own, so no two work items write one byte.
func buildPairStream(cwp, wq []uint8, af *arithForm, lo, hi, k int) {
	stride, row, sp := 2*af.nT, af.pairRow(k), af.cwSpread
	for oc := lo; oc < hi; oc++ {
		wr := wq[oc*k : (oc+1)*k]
		out := cwp[oc*row : (oc+1)*row]
		for p := 0; 2*p < k; p++ {
			l0 := 2 * int(wr[2*p])
			w0, w1 := sp[l0], sp[l0+1]
			if 2*p+1 < k {
				l1 := 2 * int(wr[2*p+1])
				w0 |= sp[l1] << 8
				w1 |= sp[l1+1] << 8
			}
			o := out[p*stride:]
			binary.LittleEndian.PutUint64(o, w0)
			binary.LittleEndian.PutUint64(o[8:], w1)
		}
	}
}

// skinnyStreamSlack is how far skinnyPairStream's last eight-byte store
// may reach past the stream's end.
const skinnyStreamSlack = 8

// skinnyPairStream writes the pair kernel's coefficient stream for row r
// of the (nK x nR) tile xt, the mirror of buildPairStream's: per k-pair
// p the nT byte pairs (x[2p] & xm_t, x[2p+1] & xm_t), zero for the
// virtual partner of an odd trailing k-step (whose lanes load wqT's zero
// row). The byte pair, repeated in the four words of a uint64, is cut
// with four strips' masks per store; a store past the pair's nT strips
// lands on the next pair's bytes, written after it, or in the slack.
func skinnyPairStream(cx, xt []uint8, xmQuad []uint64, r, nR, nK, nT int) {
	for p := 0; 2*p < nK; p++ {
		pair := uint64(xt[2*p*nR+r])
		if 2*p+1 < nK {
			pair |= uint64(xt[(2*p+1)*nR+r]) << 8
		}
		pair *= 0x0001000100010001
		out := cx[p*nT*2:]
		for g, m := range xmQuad {
			binary.LittleEndian.PutUint64(out[8*g:], pair&m)
		}
	}
}
