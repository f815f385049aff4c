//go:build !amd64 || purego

package nn

// Portable fallback (non-amd64 hosts and the purego build tag): the
// backward tiers' SIMD kernels are unavailable. kernels_backward.go
// routes the dW sweep to the pure-Go lane twins and the dX sweep to its
// Go loops when hasGemmAsm is false, so the Go loops cover everything
// and the stubs below are unreachable.

func bwdGatherDWAVX2(out0, out1 *float32, x0, x1 *uint8, dyR *float32, woff0, woff1 *int32, gwPad *float32, zx float32, rows, outC int64) {
	panic("nn: backward kernel called without assembly support")
}

func bwdDWTableAVX2(tab *float32, woff *int32, gwPad *float32, zx float32, n int64) {
	panic("nn: backward kernel called without assembly support")
}

func bwdTableDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, t0, t1, t2, t3 *float32, rows, outC int64) {
	panic("nn: backward kernel called without assembly support")
}

func bwdUniformDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, lev *float32, rows, outC int64) {
	panic("nn: backward kernel called without assembly support")
}

func bwdConstDXAVX2(dx0, dx1 *float32, gsT *float32, v0, v1 *float32, rows32, rows, outC, k int64) {
	panic("nn: backward kernel called without assembly support")
}

func bwdGatherDXAVX2(dxrow *float32, xcol *uint8, gsT *float32, woffCol *int32, gxPad *float32, zw float32, rows32, rows, outC int64) {
	panic("nn: backward kernel called without assembly support")
}
