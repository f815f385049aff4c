package nn

import (
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/quant"
)

// Microbenchmarks for the blocked GEMM kernels against the preserved
// reference kernels, at the shape of the bench_test.go conv layer
// (batch 4 of 16x16x16 through a 3x3 16->32 conv: rows=1024, k=144,
// outC=32). cmd/benchkernels runs these same shapes for the committed
// BENCH_kernels.json baseline.

const (
	benchRows = 1024
	benchOutC = 32
	benchK    = 144
)

type benchOperands struct {
	op           *Op
	xq, wq       []uint8
	xClip, wClip []bool
	dy           []float32
	pw           []quant.Params
	px           quant.Params
	bias         []float32
}

func makeBenchOperands() benchOperands {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		panic("mul7u_rm6 missing")
	}
	rng := rand.New(rand.NewSource(42))
	o := benchOperands{
		op:    DifferenceOp(e.Mult, 6),
		xq:    make([]uint8, benchRows*benchK),
		wq:    make([]uint8, benchOutC*benchK),
		xClip: make([]bool, benchRows*benchK),
		wClip: make([]bool, benchOutC*benchK),
		dy:    make([]float32, benchRows*benchOutC),
		pw:    []quant.Params{quant.Calibrate(-1, 1, 7)},
		px:    quant.Calibrate(0, 2, 7),
		bias:  make([]float32, benchOutC),
	}
	for i := range o.xq {
		o.xq[i] = uint8(rng.Intn(128))
	}
	for i := range o.wq {
		o.wq[i] = uint8(rng.Intn(128))
	}
	for i := range o.dy {
		o.dy[i] = float32(rng.NormFloat64())
	}
	return o
}

func BenchmarkKernel_GEMMForwardAuto(b *testing.B) {
	o := makeBenchOperands()
	var s KernelScratch
	dst := make([]float32, benchRows*benchOutC)
	o.op.ForwardGEMM(&s, dst, o.xq, o.wq, benchRows, benchOutC, benchK, o.pw, o.px, o.bias) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.op.ForwardGEMM(&s, dst, o.xq, o.wq, benchRows, benchOutC, benchK, o.pw, o.px, o.bias)
	}
}

func BenchmarkKernel_GEMMForwardRef(b *testing.B) {
	o := makeBenchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.op.ForwardGEMMRef(o.xq, o.wq, benchRows, benchOutC, benchK, o.pw, o.px, o.bias)
	}
}

func BenchmarkKernel_GEMMBackwardFused(b *testing.B) {
	o := makeBenchOperands()
	var s KernelScratch
	dw := make([]float32, benchOutC*benchK)
	dx := make([]float32, benchRows*benchK)
	gsum := make([]float32, benchOutC)
	o.op.BackwardGEMM(&s, dw, dx, gsum, o.dy, o.xq, o.wq, o.xClip, o.wClip,
		benchRows, benchOutC, benchK, o.pw, o.px) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.op.BackwardGEMM(&s, dw, dx, gsum, o.dy, o.xq, o.wq, o.xClip, o.wClip,
			benchRows, benchOutC, benchK, o.pw, o.px)
	}
}

// BenchmarkKernel_GEMMBackwardAffine exercises the gather-free affine
// tier: STE gradient tables are constant per row, so auto-dispatch
// selects BwdPathAffine (kernels_backward.go) at this shape.
func BenchmarkKernel_GEMMBackwardAffine(b *testing.B) {
	o := makeBenchOperands()
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		b.Fatal("mul7u_rm6 missing")
	}
	op := STEOp(e.Mult)
	var s KernelScratch
	dw := make([]float32, benchOutC*benchK)
	dx := make([]float32, benchRows*benchK)
	gsum := make([]float32, benchOutC)
	op.BackwardGEMM(&s, dw, dx, gsum, o.dy, o.xq, o.wq, o.xClip, o.wClip,
		benchRows, benchOutC, benchK, o.pw, o.px) // warm the arena
	if got := op.BackwardPath(o.dy); got != BwdPathAffine {
		b.Fatalf("expected affine dispatch, got %q", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.BackwardGEMM(&s, dw, dx, gsum, o.dy, o.xq, o.wq, o.xClip, o.wClip,
			benchRows, benchOutC, benchK, o.pw, o.px)
	}
}

func BenchmarkKernel_GEMMBackwardRef(b *testing.B) {
	o := makeBenchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.op.BackwardGEMMRef(o.dy, o.xq, o.wq, o.xClip, o.wClip,
			benchRows, benchOutC, benchK, o.pw, o.px)
	}
}
