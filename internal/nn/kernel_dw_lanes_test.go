package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/gradient"
)

// collapsedOp returns an op over gradient.FromFunc tables in the two
// forms the affine row reaches (Op.dwAff): a DW table that is one affine
// function of x on every row, with A != 1 and B != 0 (STE's are 1 and 0,
// which would hide a dropped term), and a DX table constant in x with a
// distinct value per weight level (a wrong level shows).
func collapsedOp(t *testing.T, bits int, rng *rand.Rand) *Op {
	t.Helper()
	const a, b = -0.625, 1.75
	bw := make([]float64, 1<<bits)
	for i := range bw {
		bw[i] = rng.NormFloat64()
	}
	op := &Op{Label: "collapsed", Bits: bits, Grads: gradient.FromFunc("collapsed", bits, func(w, x uint32) (float64, float64) {
		return float64(float32(a*float32(x)) + b), bw[w]
	})}
	op.ensurePadded()
	if op.dwAff == nil || op.dxAff == nil {
		t.Fatalf("%d-bit collapsed tables do not reach the affine row on both sweeps", bits)
	}
	return op
}

// generalOp returns an op over random tables, which only the fused row
// reads.
func generalOp(bits int, rng *rand.Rand) *Op {
	op := &Op{Label: "general", Bits: bits, Grads: gradient.FromFunc("general", bits, func(w, x uint32) (float64, float64) {
		return rng.NormFloat64(), rng.NormFloat64()
	})}
	op.ensurePadded()
	return op
}

// TestDWLaneKernelsMatchGoTwins runs the dW column-block kernels — the
// asm lane kernels where the host has them — against the pure-Go twins:
// the affine row on collapsed tables (collapsedOp), whose dW must also
// equal the gather twin's on the same tables, and the fused row on
// random ones. Besides a few shapes below every crossover, each operand
// width runs at 2^B - 1, 2^B and 2^B + 1 rows — the fused row's gather
// kernel, then its level tables (bwdDWTables) — with k = 1, 2 and 3 mod
// 4 (a short last group of table columns) cut into two uneven blocks,
// and channel counts below, at, off and past the lane width.
func TestDWLaneKernelsMatchGoTwins(t *testing.T) {
	defer func(v bool) { hasGemmAsm = v }(hasGemmAsm)
	asm := hasGemmAsm
	rng := rand.New(rand.NewSource(12))
	type shape struct{ bits, rows, outC, k int }
	shapes := []shape{{7, 37, 8, 5}, {7, 64, 12, 4}, {7, 5, 24, 9}, {7, 33, 31, 2}, {7, 20, 6, 3}}
	for _, bits := range []int{6, 7, 8} {
		for _, rows := range []int{1<<bits - 1, 1 << bits, 1<<bits + 1} {
			for _, outC := range []int{1, 7, 8, 9, 17} {
				for _, k := range []int{9, 10, 11} {
					shapes = append(shapes, shape{bits, rows, outC, k})
				}
			}
		}
	}
	type opPair struct{ collapsed, general *Op }
	ops := map[int]opPair{}
	for _, sh := range shapes {
		bits, rows, outC, k := sh.bits, sh.rows, sh.outC, sh.k
		if _, ok := ops[bits]; !ok {
			ops[bits] = opPair{collapsedOp(t, bits, rng), generalOp(bits, rng)}
		}
		uni, gen := ops[bits].collapsed, ops[bits].general
		const zx = 3
		xT := make([]uint8, k*rows)
		for i := range xT {
			xT[i] = uint8(rng.Intn(1 << bits))
		}
		wq := make([]uint8, outC*k)
		for i := range wq {
			wq[i] = uint8(rng.Intn(1 << bits))
		}
		ld := max(outC, dwLanes)
		s := &KernelScratch{dyR: make([]float32, rows*ld), dwT: make([]float32, k*ld), woff: make([]int32, k*ld)}
		for i := range s.dyR {
			if i%ld < outC { // spare lanes carry zero gradients
				s.dyR[i] = float32(rng.NormFloat64())
			}
		}
		want := make([]float32, ld)
		// Two uneven blocks, as the pool hands them out.
		cut := (k - 1) / 2
		sweep := func(tier *bwdSweep, op *Op) []float32 {
			tier.dwPrep(op, s, k*ld, zx)
			tier.dw(op, s, xT, wq, 0, cut, rows, []int{0, rows}, outC, ld, k, zx)
			tier.dw(op, s, xT, wq, cut, k, rows, []int{0, rows}, outC, ld, k, zx)
			return append([]float32(nil), s.dwT...)
		}
		affine, fused := &bwdSweeps[0], &bwdSweeps[1]

		got := sweep(affine, uni)
		hasGemmAsm = false
		twin := sweep(affine, uni)
		hasGemmAsm = asm
		sweep(fused, uni) // fills woff for the gather twin
		for i := 0; i < k; i++ {
			what := fmt.Sprintf("%+v affine dwT[%d]", sh, i)
			requireSameBits(t, what+" vs Go twin", got[i*ld:i*ld+outC], twin[i*ld:i*ld+outC])
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], uni.gwPad, zx)
			requireSameBits(t, what+" vs gather twin", got[i*ld:i*ld+outC], want[:outC])
		}
		got = sweep(fused, gen)
		for i := 0; i < k; i++ {
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], gen.gwPad, zx)
			requireSameBits(t, fmt.Sprintf("%+v gather dwT[%d]", sh, i), got[i*ld:i*ld+outC], want[:outC])
		}
	}
}

// TestDWTablesOutOfRangeLevels feeds a 7-bit op operand levels in
// [128, 256) — levels no quantizer of its width emits, which the padded
// gradient rows exist to make safe reads — and requires the level
// tables' dW to equal the gather kernel's and the Go twin's: the table
// rows from 2^B up must hold what the padding gives, fl(0 - zx).
func TestDWTablesOutOfRangeLevels(t *testing.T) {
	if !hasGemmAsm {
		t.Skip("the level tables are an asm path")
	}
	op := DifferenceOp(lookupMult(t, "mul7u_rm6"), 6)
	op.ensurePadded()
	rng := rand.New(rand.NewSource(14))
	const rows, outC, k = 160, 9, 6
	ld := max(outC, dwLanes)
	xT := make([]uint8, k*rows)
	for i := range xT {
		xT[i] = uint8(128 + rng.Intn(128))
		if i%5 == 0 {
			xT[i] = uint8(rng.Intn(128)) // and some in range, so the two halves mix
		}
	}
	wq := make([]uint8, outC*k)
	for i := range wq {
		wq[i] = uint8(rng.Intn(128))
	}
	s := &KernelScratch{dyR: make([]float32, rows*ld), dwT: make([]float32, k*ld), woff: make([]int32, k*ld)}
	for i := range s.dyR {
		if i%ld < outC {
			s.dyR[i] = float32(rng.NormFloat64())
		}
	}
	for _, zx := range []float32{0, 3, 64.5} {
		op.bwdDWGather(s, xT, wq, 0, k, rows, []int{0, rows}, outC, ld, k, zx) // fills woff (and runs the tables)
		tables := append([]float32(nil), s.dwT...)
		clear(s.dwT)
		op.bwdDWGathers(s, xT, 0, k, rows, []int{0, rows}, ld, k, zx)
		want := make([]float32, ld)
		for i := 0; i < k; i++ {
			what := fmt.Sprintf("zx=%v dwT[%d]", zx, i)
			requireSameBits(t, what+" tables vs gather kernel", tables[i*ld:i*ld+outC], s.dwT[i*ld:i*ld+outC])
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], op.gwPad, zx)
			requireSameBits(t, what+" tables vs Go twin", tables[i*ld:i*ld+outC], want[:outC])
		}
	}
}

// TestDXChunkKernelsMatchGoLoops is the dX counterpart: the column-block
// kernels with their 32-row asm chunks against the same functions with
// the assembly switched off (every row on the Go tail loops), the affine
// row on collapsed tables (collapsedOp) — where it must also equal the
// fused row — and the fused row on random ones, with a zero point per
// channel.
func TestDXChunkKernelsMatchGoLoops(t *testing.T) {
	if !hasGemmAsm {
		t.Skip("no assembly to compare: the Go loops are all there is")
	}
	defer func() { hasGemmAsm = true }()
	rng := rand.New(rand.NewSource(13))
	uni, gen := collapsedOp(t, 7, rng), generalOp(7, rng)
	affine, fused := &bwdSweeps[0], &bwdSweeps[1]
	for _, rows := range sweepRows {
		for _, outC := range []int{1, 7, 8, 17} {
			const k = 5
			xT := make([]uint8, k*rows)
			for i := range xT {
				xT[i] = uint8(rng.Intn(128))
			}
			wq := make([]uint8, outC*k)
			for i := range wq {
				wq[i] = uint8(rng.Intn(128))
			}
			s := &KernelScratch{gsT: make([]float32, outC*rows), zwf: float32(rng.Intn(128))}
			for i := range s.gsT {
				s.gsT[i] = float32(rng.NormFloat64())
			}
			sweep := func(tier *bwdSweep, op *Op, asm bool) []float32 {
				hasGemmAsm = asm
				got := make([]float32, k*rows)
				tier.dxPrep(s, k*outC)
				if asm { // two uneven blocks, as the pool hands them out
					tier.dx(op, s, got, xT, wq, 0, k/2, rows, outC, k)
					tier.dx(op, s, got, xT, wq, k/2, k, rows, outC, k)
				} else {
					tier.dx(op, s, got, xT, wq, 0, k, rows, outC, k)
				}
				return got
			}
			what := fmt.Sprintf("rows=%d outC=%d", rows, outC)
			got := sweep(affine, uni, true)
			requireSameBits(t, what+" affine dxT vs Go loops", got, sweep(affine, uni, false))
			requireSameBits(t, what+" affine dxT vs fused", got, sweep(fused, uni, false))
			requireSameBits(t, what+" fused dxT vs Go loops", sweep(fused, gen, true), sweep(fused, gen, false))
		}
	}
}
