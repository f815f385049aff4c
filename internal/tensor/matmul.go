package tensor

import "fmt"

// The GEMM kernels come in two forms: allocating wrappers (MatMul,
// MatMulTransB, MatMulTransA) that keep the original API, and forms that
// write into a caller-owned destination (the *Into functions and
// MatMulTransBJob). All of them schedule row blocks on the persistent
// worker pool (see pool.go).

// MatMul returns A (m x k) times B (k x n) as a new (m x n) tensor.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes A (m x k) times B (k x n) into dst (m x n),
// overwriting it. It is the GEMM under the float linear layer's input
// gradient.
func MatMulInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v x %v", a.Shape, b.Shape))
	}
	checkDst(dst, m, n)
	ParallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := a.Data[i*k : (i+1)*k]
			or := dst.Data[i*n : (i+1)*n]
			for j := range or {
				or[j] = 0
			}
			for p, av := range ar {
				if av == 0 {
					continue
				}
				br := b.Data[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

// MatMulTransB returns A (m x k) times Bᵀ where B is (n x k).
func MatMulTransB(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[0])
	var mm MatMulTransBJob
	mm.Run(out, a, b)
	return out
}

// MatMulTransBJob computes A (m x k) times Bᵀ (B is n x k) into a
// caller-owned destination without materializing the transpose. Like
// Im2ColTJob it is a reusable job: a caller that keeps one in long-lived
// state (a layer) dispatches without allocating. The zero value is ready
// to use.
type MatMulTransBJob struct {
	dst, a, b *Tensor
}

// Run computes A (m x k) times Bᵀ (B is n x k) into dst (m x n).
func (mm *MatMulTransBJob) Run(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransB needs 2-D operands")
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v x %v^T", a.Shape, b.Shape))
	}
	checkDst(dst, a.Shape[0], b.Shape[0])
	mm.dst, mm.a, mm.b = dst, a, b
	ParallelRowsOn(a.Shape[0], mm)
}

// RunRange implements RangeRunner over the rows of A.
func (mm *MatMulTransBJob) RunRange(lo, hi int) {
	a, b, dst := mm.a, mm.b, mm.dst
	k, n := a.Shape[1], b.Shape[0]
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		or := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var s float32
			for p := range ar {
				s += ar[p] * br[p]
			}
			or[j] = s
		}
	}
}

// MatMulTransA returns Aᵀ times B where A is (k x m) and B is (k x n).
func MatMulTransA(a, b *Tensor) *Tensor {
	out := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes Aᵀ B (A is k x m, B is k x n) into dst
// (m x n). Used for weight gradients.
func MatMulTransAInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransA needs 2-D operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dimensions differ: %v^T x %v", a.Shape, b.Shape))
	}
	checkDst(dst, m, n)
	ParallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			or := dst.Data[i*n : (i+1)*n]
			for j := range or {
				or[j] = 0
			}
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if av == 0 {
					continue
				}
				br := b.Data[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

func checkDst(dst *Tensor, m, n int) {
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", dst.Shape, m, n))
	}
}
