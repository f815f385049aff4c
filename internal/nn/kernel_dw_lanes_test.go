package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
)

// TestBackwardLaneWidths pins the big backward tiers to the reference
// at output-channel counts at, off and below the dW kernels' eight
// lanes (below, the spare lanes are zero-padded) and at even, odd and
// single-column k, where the column-pair calls repeat a column and the
// lane groups overlap.
func TestBackwardLaneWidths(t *testing.T) {
	defer SetBackwardTierOverride("")
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	tiers := []struct {
		tier string
		op   *Op
	}{
		{BwdPathAffine, STEOp(e.Mult)},
		{BwdPathFused, DifferenceOp(e.Mult, 6)},
	}
	for _, tc := range tiers {
		for _, outC := range []int{7, 8, 9, 12, 16, 24, 31} {
			for _, k := range []int{1, 2, 3, 16, 27, 70} {
				t.Run(fmt.Sprintf("%s/outC=%d/k=%d", tc.tier, outC, k), func(t *testing.T) {
					SetBackwardTierOverride(tc.tier)
					defer SetBackwardTierOverride("")
					backwardTierCompare(t, tc.op, 45, outC, k, int64(outC*100+k))
				})
			}
		}
	}
}

// TestDWLaneKernelsMatchGoTwins runs the dW column-block driver — the
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
		op.bwdDWCols(s, xT, wq, 0, k/2, rows, outC, ld, k, zx, true)
		op.bwdDWCols(s, xT, wq, k/2, k, rows, outC, ld, k, zx, true)
		for i := 0; i < k; i++ {
			bwdAffineDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.ak[i*ld:(i+1)*ld], s.bk[i*ld:(i+1)*ld], zx)
			requireSameBits(t, fmt.Sprintf("%+v affine dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
		}
		op.bwdDWCols(s, xT, wq, 0, k/2, rows, outC, ld, k, zx, false)
		op.bwdDWCols(s, xT, wq, k/2, k, rows, outC, ld, k, zx, false)
		for i := 0; i < k; i++ {
			bwdGatherDWLanes(want, xT[i*rows:(i+1)*rows], s.dyR, s.woff[i*ld:(i+1)*ld], op.gwPad, zx)
			requireSameBits(t, fmt.Sprintf("%+v gather dwT[%d]", sh, i), s.dwT[i*ld:i*ld+outC], want[:outC])
		}
	}
}
