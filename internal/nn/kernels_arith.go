package nn

// Tile kernel of the closed-form forward tier (the arith row of
// tiers.go): the same row tiling, operand tiles, and Eq. (8) epilogue
// as the LUT tier (fwdTileRun), with the per-tile accumulation handed
// to the AVX2 strip kernels in gemm_arith_amd64.s. Two kernel flavours
// share the tile loop:
//
//   - pair (VPMADDUBSW): two k-steps per multiply-add; used whenever
//     the op's coefficients fit the signed-byte operand and its strip
//     bounds rule out madd saturation (every 7-bit-or-narrower mask
//     family member, see arithForm.pairOK).
//   - word (VPMULLW): one k-step per multiply in uint16 lanes; covers
//     the remaining mask ops (8-bit families with coefficients > 127).
//
// Both accumulate compensation-free sums; k*comp is folded back in the
// epilogue. Rows beyond the kernels' 32-row granularity fall back to
// scalar strip evaluation — the identical integer sum, so the tier
// stays bit-exact with ForwardGEMMRef regardless of shape.

// arithSetup is the arith row's per-call state: the compensation the
// epilogue folds back and, for the pair kernel, the coefficient stream.
func arithSetup(t *fwdTileRun) {
	af := t.op.arith
	t.kComp = int64(t.k) * int64(af.comp)
	if af.pairOK {
		t.s.cwp = grow(t.s.cwp, t.outC*((t.k+1)/2)*af.nT*2)
		buildPairStream(t.s.cwp, t.wq, af, t.outC, t.k)
	}
}

// arithAccumTile adds one (nK x nR) operand tile into tl.acc32 through
// the strip kernels. The row's predicate guarantees op.arith != nil,
// hasGemmAsm, rows >= 32, and the int32 accumulator; arithSetup has
// built the pair stream.
func arithAccumTile(t *fwdTileRun, tl *fwdTile, nR, kb, nK int) {
	af, acc, xt := t.op.arith, tl.acc32, tl.xt
	nT := af.nT
	nR32 := nR &^ 31
	if af.pairOK && nK&1 == 1 {
		// Odd k-step count: the pair kernel reads a virtual last
		// column whose coefficient byte is zero; zero the column
		// so the dead VPAND input is defined.
		clear(xt[nK*nR : (nK+1)*nR])
	}
	if nR32 > 0 {
		if af.pairOK {
			nKpTot := (t.k + 1) / 2
			for oc := 0; oc < t.outC; oc++ {
				gemmArithPairAVX2(&acc[oc*nR], &xt[0],
					&t.s.cwp[(oc*nKpTot+kb/2)*nT*2], &af.xmPair[0],
					int64(nR), int64((nK+1)/2), int64(nT), int64(af.cadPair))
			}
		} else {
			for oc := 0; oc < t.outC; oc++ {
				gemmArithAccumAVX2(&acc[oc*nR], &xt[0],
					&t.wq[oc*t.k+kb], &af.cw16[0], &af.xm16[0],
					int64(nR), int64(nK), int64(nT), int64(af.cadWord))
			}
		}
	}
	if nR32 < nR {
		arithTailRows(acc, xt, af, t.wq, nR32, nR, nK, kb, t.outC, t.k)
	}
}

// buildPairStream writes the pair kernel's coefficient stream: for each
// output channel and k-pair p, the nT byte pairs
// (cw(wq[oc][2p]), cw(wq[oc][2p+1])) in strip order. The virtual
// partner of an odd trailing k-step gets coefficient zero. Built once
// per call and amortized across every row block; serial on purpose —
// it is a couple of percent of one call, and another pool dispatch
// would cost the forward pass its alloc parity with the LUT tiers.
func buildPairStream(cwp []uint8, wq []uint8, af *arithForm, outC, k int) {
	nT := af.nT
	nKp := (k + 1) / 2
	for oc := 0; oc < outC; oc++ {
		wr := wq[oc*k : (oc+1)*k]
		out := cwp[oc*nKp*nT*2 : (oc+1)*nKp*nT*2]
		for p := 0; p < nKp; p++ {
			c0 := af.cwb[int(wr[2*p])*nT : (int(wr[2*p])+1)*nT]
			row := out[p*nT*2 : (p+1)*nT*2]
			if 2*p+1 < k {
				c1 := af.cwb[int(wr[2*p+1])*nT : (int(wr[2*p+1])+1)*nT]
				for t := 0; t < nT; t++ {
					row[2*t] = c0[t]
					row[2*t+1] = c1[t]
				}
			} else {
				for t := 0; t < nT; t++ {
					row[2*t] = c0[t]
					row[2*t+1] = 0
				}
			}
		}
	}
}

// arithTailRows evaluates the strip sum scalar for the tile rows in
// [rLo, nR) that the 32-row SIMD kernels leave behind — the same
// integer summands in a different order, which integer associativity
// makes bit-identical. acc and xt use the tile's nR row stride.
func arithTailRows(acc []int32, xt []uint8, af *arithForm, wq []uint8, rLo, nR, nK, kb, outC, k int) {
	nT := af.nT
	for oc := 0; oc < outC; oc++ {
		wr := wq[oc*k+kb : oc*k+kb+nK]
		accRow := acc[oc*nR : (oc+1)*nR]
		for i, wv := range wr {
			cw := af.cw16[int(wv)*nT : (int(wv)+1)*nT]
			col := xt[i*nR : (i+1)*nR]
			for r := rLo; r < nR; r++ {
				xv := uint32(col[r])
				var sum uint32
				for t, c := range cw {
					sum += uint32(c) * (xv & uint32(af.xm16[t]))
				}
				accRow[r] += int32(sum)
			}
		}
	}
}
