//go:build amd64 && !purego

package quant

import "github.com/appmult/retrain/internal/tensor"

// quantizeBlocksAVX2 is QuantizeInto's loop body over n elements, n a
// positive multiple of 8, eight lanes at a time: VDIVPS by the scale (a
// division, as in Go), widen to float64, add copysign(0.5, x), clamp to
// ±roundLimit — as second source, so a NaN becomes -roundLimit as in
// level — and convert truncating, which is round half away from zero
// exactly for a float32-origin quotient (DESIGN.md §3(b) has the
// argument); then the zero point, the VPMAXSD/VPMINSD clamp to
// [0, qmax], flag = clamped != unclamped, and a pack to bytes. clip may
// be nil.
//
//go:noescape
func quantizeBlocksAVX2(q *uint8, clip *bool, data *float32, n int64, scale float32, zero, qmax int32)

// quantizeBlocks quantizes the leading whole 8-lane blocks of data and
// returns how many elements it covered.
func (p Params) quantizeBlocks(q []uint8, clip []bool, data []float32) int {
	n := len(data) &^ 7
	if !tensor.HasAVX2 || n == 0 {
		return 0
	}
	var c *bool
	if clip != nil {
		_ = clip[n-1]
		c = &clip[0]
	}
	_ = q[n-1]
	quantizeBlocksAVX2(&q[0], c, &data[0], int64(n), p.Scale, p.Zero, int32(p.QMax()))
	return n
}
