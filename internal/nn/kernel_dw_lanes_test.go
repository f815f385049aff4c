package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/gradient"
)

// TestDWLaneKernelsMatchGoTwins runs the dW column-block kernels — the
// asm lane kernels where the host has them — against the pure-Go twins
// on synthetic tables: random affine coefficients with nonzero
// intercepts (STE, the only registry estimator with an affine DW table,
// has a = 1, b = 0, which would hide a dropped term) and a random
// gather table. Besides a few shapes below every crossover, each
// operand width runs at 2^B - 1, 2^B and 2^B + 1 rows — the fused row's
// gather kernel, then its level tables (bwdDWTables) — with k = 1, 2 and
// 3 mod 4 (a short last group of table columns) cut into two uneven
// blocks, and channel counts below, off and past the lane width.
func TestDWLaneKernelsMatchGoTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type shape struct{ bits, rows, outC, k int }
	shapes := []shape{{7, 37, 8, 5}, {7, 64, 12, 4}, {7, 5, 24, 9}, {7, 33, 31, 2}, {7, 20, 6, 3}}
	for _, bits := range []int{6, 7, 8} {
		for _, rows := range []int{1<<bits - 1, 1 << bits, 1<<bits + 1} {
			for _, outC := range []int{1, 7, 9, 17} {
				for _, k := range []int{9, 10, 11} {
					shapes = append(shapes, shape{bits, rows, outC, k})
				}
			}
		}
	}
	ops := map[int]*Op{}
	for _, sh := range shapes {
		bits, rows, outC, k := sh.bits, sh.rows, sh.outC, sh.k
		op := ops[bits]
		if op == nil {
			op = &Op{Label: "synthetic", Bits: bits, Grads: gradient.STE(bits)}
			op.ensurePadded()
			for i := range op.dwAff {
				op.dwAff[i] = gradient.Affine{A: float32(rng.NormFloat64()), B: float32(rng.NormFloat64())}
			}
			for i := range op.gwPad {
				if i%padStride < 1<<bits { // the padding stays zero, as ensurePadded leaves it
					op.gwPad[i] = float32(rng.NormFloat64())
				}
			}
			ops[bits] = op
		}
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
		s := &KernelScratch{dyR: make([]float32, rows*ld), dwT: make([]float32, k*ld),
			ak: make([]float32, k*ld), bk: make([]float32, k*ld), woff: make([]int32, k*ld)}
		for i := range s.dyR {
			if i%ld < outC { // spare lanes carry zero gradients
				s.dyR[i] = float32(rng.NormFloat64())
			}
		}
		want := make([]float32, ld)

		// Two uneven blocks, as the pool hands them out.
		cut := (k - 1) / 2
		op.bwdDWAffine(s, xT, wq, 0, cut, rows, outC, ld, k, zx)
		op.bwdDWAffine(s, xT, wq, cut, k, rows, outC, ld, k, zx)
		for i := 0; i < k; i++ {
			bwdAffineDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.ak[i*ld:(i+1)*ld], s.bk[i*ld:(i+1)*ld], zx)
			requireSameBits(t, fmt.Sprintf("%+v affine dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
		}
		op.bwdDWGather(s, xT, wq, 0, cut, rows, outC, ld, k, zx)
		op.bwdDWGather(s, xT, wq, cut, k, rows, outC, ld, k, zx)
		for i := 0; i < k; i++ {
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], op.gwPad, zx)
			requireSameBits(t, fmt.Sprintf("%+v gather dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
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
		op.bwdDWGather(s, xT, wq, 0, k, rows, outC, ld, k, zx) // fills woff (and runs the tables)
		tables := append([]float32(nil), s.dwT...)
		clear(s.dwT)
		op.bwdDWGathers(s, xT, 0, k, rows, ld, zx)
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
// the assembly switched off (every row on the Go tail loops), on
// synthetic tables. Every registry table the affine row accepts for DX
// has a = 0 — the gradient with respect to x does not depend on x — so
// only random coefficients can show the affine kernel reading the wrong
// one of the four operand vectors it keeps across the oc loop.
func TestDXChunkKernelsMatchGoLoops(t *testing.T) {
	if !hasGemmAsm {
		t.Skip("no assembly to compare: the Go loops are all there is")
	}
	defer func() { hasGemmAsm = true }()
	rng := rand.New(rand.NewSource(13))
	op := &Op{Label: "synthetic", Bits: 7, Grads: gradient.STE(7)}
	op.ensurePadded()
	for i := range op.dxAff {
		op.dxAff[i] = gradient.Affine{A: float32(rng.NormFloat64()), B: float32(rng.NormFloat64())}
	}
	for i := range op.gxPad {
		op.gxPad[i] = float32(rng.NormFloat64())
	}
	for _, rows := range sweepRows {
		for _, outC := range []int{1, 7, 17} {
			const k = 5
			xT := make([]uint8, k*rows)
			for i := range xT {
				xT[i] = uint8(rng.Intn(128))
			}
			wq := make([]uint8, outC*k)
			for i := range wq {
				wq[i] = uint8(rng.Intn(128))
			}
			s := &KernelScratch{gsT: make([]float32, outC*rows), zwc: make([]float32, outC),
				ak: make([]float32, k*outC), bk: make([]float32, k*outC), woff: make([]int32, k*outC)}
			for i := range s.gsT {
				s.gsT[i] = float32(rng.NormFloat64())
			}
			for i := range s.zwc {
				s.zwc[i] = float32(rng.Intn(128))
			}
			for _, tier := range bwdSweeps {
				var got, want [k * 96]float32
				// Two uneven blocks, as the pool hands them out.
				hasGemmAsm = true
				tier.dx(op, s, got[:], xT, wq, 0, k/2, rows, outC, k)
				tier.dx(op, s, got[:], xT, wq, k/2, k, rows, outC, k)
				hasGemmAsm = false
				tier.dx(op, s, want[:], xT, wq, 0, k, rows, outC, k)
				requireSameBits(t, fmt.Sprintf("rows=%d outC=%d %s dxT", rows, outC, tier.label), got[:k*rows], want[:k*rows])
			}
		}
	}
}
