//go:build amd64 && !purego

package nn

import "github.com/appmult/retrain/internal/tensor"

// Go-side contracts of the glue passes' AVX2 kernels (glue_amd64.s).
// Each covers the leading part of a pass it can do in whole lanes and
// returns how much that was; the Go loop it replaces, which is also
// the pure-Go build's whole pass, finishes the rest. Every kernel
// equals that loop bit for bit (DESIGN.md §3, "Between the GEMMs").

//go:noescape
func maxPool2x2AVX2(dst *float32, am *int32, src *float32, tl *int32, groups, blocks int64, base, step, w int32)

//go:noescape
func reluAVX2(dst *float32, keep *uint8, src *float32, n int64)

//go:noescape
func reluMaskAVX2(dst, src *float32, keep *uint8, n int64)

//go:noescape
func bnNormalizeAVX2(out, xhat, x *float32, n, hw4, stride int64, k *[4]float64)

//go:noescape
func bnInputGradAVX2(dx, dy, xhat *float32, n, hw4, stride int64, k *[4]float64)

//go:noescape
func bnSumsAVX2(sums *[4]float64, x *float32, n, hw, stride int64)

//go:noescape
func bnSqDevAVX2(sq *[4]float64, x *float32, mean *float64, n, hw, stride int64)

//go:noescape
func bnGradSumsAVX2(sumDy, sumDyXhat *[4]float64, dy, xhat *float32, n, hw, stride int64)

// pool2x2Blocks pools the whole blocks of t.corners' planes from plane
// lo up to hi, and returns how many planes that was.
func (t *maxPoolRun) pool2x2Blocks(lo, hi int) int {
	per := t.corners.planes
	blocks := (hi - lo) / per
	if !tensor.HasAVX2 || blocks == 0 {
		return 0
	}
	hw, ohw := t.h*t.w, t.oh*t.ow
	end := (lo + blocks*per) * ohw
	_, _ = t.dst[end-1], t.src[(lo+blocks*per)*hw-1]
	var am *int32
	if t.argmax != nil {
		_ = t.argmax[end-1]
		am = &t.argmax[lo*ohw]
	}
	tl := t.corners.tl
	maxPool2x2AVX2(&t.dst[lo*ohw], am, &t.src[0], &tl[0], int64(len(tl)/8), int64(blocks), int32(lo*hw), int32(per*hw), int32(t.w))
	return blocks * per
}

// reluBlocks rectifies the leading whole 8-lane blocks of src into dst,
// recording keep unless it is nil, and returns how many elements that
// was.
func reluBlocks(dst []float32, keep []uint8, src []float32) int {
	n := len(src) &^ 7
	if !tensor.HasAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	var k *uint8
	if keep != nil {
		_ = keep[n-1]
		k = &keep[0]
	}
	reluAVX2(&dst[0], k, &src[0], int64(n))
	return n
}

// reluMaskBlocks masks the leading whole 8-lane blocks of the gradient
// src into dst and returns how many elements that was.
func reluMaskBlocks(dst, src []float32, keep []uint8) int {
	n := len(src) &^ 7
	if !tensor.HasAVX2 || n == 0 {
		return 0
	}
	_, _ = dst[n-1], keep[n-1]
	reluMaskAVX2(&dst[0], &src[0], &keep[0], int64(n))
	return n
}

// bnNormalizeBlocks normalizes the leading hw&^3 positions of one
// channel's n planes, stride floats apart from x[0], into out and xhat
// (nil: no cache), and returns how many positions per plane that was.
func bnNormalizeBlocks(out, xhat, x []float32, n, hw, stride int, k *[4]float64) int {
	hw4 := hw &^ 3
	if !tensor.HasAVX2 || hw4 == 0 {
		return 0
	}
	last := (n-1)*stride + hw4 - 1
	_, _ = out[last], x[last]
	var xh *float32
	if xhat != nil {
		_ = xhat[last]
		xh = &xhat[0]
	}
	bnNormalizeAVX2(&out[0], xh, &x[0], int64(n), int64(hw4), int64(stride), k)
	return hw4
}

// bnInputGradBlocks is bnNormalizeBlocks for the input gradient.
func bnInputGradBlocks(dx, dy, xhat []float32, n, hw, stride int, k *[4]float64) int {
	hw4 := hw &^ 3
	if !tensor.HasAVX2 || hw4 == 0 {
		return 0
	}
	last := (n-1)*stride + hw4 - 1
	_, _, _ = dx[last], dy[last], xhat[last]
	bnInputGradAVX2(&dx[0], &dy[0], &xhat[0], int64(n), int64(hw4), int64(stride), k)
	return hw4
}

// sumLanes sets sums to the sums of the four channels whose planes
// start at x[0], x[hw], x[2hw], x[3hw] in each of n images stride floats
// apart; false when the kernel does not take the plane size (hw must be
// 1 or a multiple of 4).
func sumLanes(sums *[bnLanes]float64, x []float32, n, hw, stride int) bool {
	if !lanesFit(hw) {
		return false
	}
	_ = x[(n-1)*stride+bnLanes*hw-1]
	bnSumsAVX2(sums, &x[0], int64(n), int64(hw), int64(stride))
	return true
}

// sqDevLanes is sumLanes for the squared deviations about mean.
func sqDevLanes(sq *[bnLanes]float64, x []float32, mean *[bnLanes]float64, n, hw, stride int) bool {
	if !lanesFit(hw) {
		return false
	}
	_ = x[(n-1)*stride+bnLanes*hw-1]
	bnSqDevAVX2(sq, &x[0], &mean[0], int64(n), int64(hw), int64(stride))
	return true
}

// gradSumsLanes is sumLanes for the gradient sums of dy and dy*xhat.
func gradSumsLanes(sumDy, sumDyXhat *[bnLanes]float64, dy, xhat []float32, n, hw, stride int) bool {
	if !lanesFit(hw) {
		return false
	}
	last := (n-1)*stride + bnLanes*hw - 1
	_, _ = dy[last], xhat[last]
	bnGradSumsAVX2(sumDy, sumDyXhat, &dy[0], &xhat[0], int64(n), int64(hw), int64(stride))
	return true
}

// lanesFit reports whether the reduction kernels run on hw-position
// planes.
func lanesFit(hw int) bool { return tensor.HasAVX2 && (hw == 1 || hw%4 == 0) }
