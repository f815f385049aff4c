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
// gather table.
func TestDWLaneKernelsMatchGoTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	op := &Op{Label: "synthetic", Bits: 7, Grads: gradient.STE(7)}
	op.ensurePadded()
	for i := range op.dwAff {
		op.dwAff[i] = gradient.Affine{A: float32(rng.NormFloat64()), B: float32(rng.NormFloat64())}
	}
	for i := range op.gwPad {
		op.gwPad[i] = float32(rng.NormFloat64())
	}
	const zx = 3
	for _, sh := range []struct{ rows, outC, k int }{{37, 8, 5}, {64, 12, 4}, {5, 24, 9}, {33, 31, 2}, {20, 6, 3}} {
		rows, outC, k := sh.rows, sh.outC, sh.k
		xT := make([]uint8, k*rows)
		for i := range xT {
			xT[i] = uint8(rng.Intn(128))
		}
		wq := make([]uint8, outC*k)
		for i := range wq {
			wq[i] = uint8(rng.Intn(128))
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
		op.bwdDWAffine(s, xT, wq, 0, k/2, rows, outC, ld, k, zx)
		op.bwdDWAffine(s, xT, wq, k/2, k, rows, outC, ld, k, zx)
		for i := 0; i < k; i++ {
			bwdAffineDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.ak[i*ld:(i+1)*ld], s.bk[i*ld:(i+1)*ld], zx)
			requireSameBits(t, fmt.Sprintf("%+v affine dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
		}
		op.bwdDWGather(s, xT, wq, 0, k/2, rows, outC, ld, k, zx)
		op.bwdDWGather(s, xT, wq, k/2, k, rows, outC, ld, k, zx)
		for i := 0; i < k; i++ {
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], op.gwPad, zx)
			requireSameBits(t, fmt.Sprintf("%+v gather dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
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
