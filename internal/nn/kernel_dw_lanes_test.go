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
