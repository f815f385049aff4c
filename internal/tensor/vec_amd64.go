//go:build amd64 && !purego

package tensor

// HasAVX2 reports whether the AVX2 assembly kernels of this package,
// internal/quant and internal/nn are usable on this machine. Detection
// is hand-rolled CPUID/XGETBV (the repo carries no dependencies): AVX2
// requires the CPU flag and the OS having enabled XMM+YMM state saving.
// Set once at init; every caller falls back to its pure-Go twin when
// false, as the purego build tag and non-amd64 hosts always do.
var HasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xa, _ := xgetbvAsm(); xa&0x6 != 0x6 { // XCR0: XMM and YMM state
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0 // EBX bit 5: AVX2
}

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// addBlocksAVX2 is dst[i] += src[i] for i in [0, n), n a positive
// multiple of 8: one separately rounded VADDPS per lane with dst as
// the first source, which is the Go expression bit for bit.
//
//go:noescape
func addBlocksAVX2(dst, src *float32, n int64)

// addBlocks adds the leading whole 8-lane blocks of src into dst and
// returns how many elements it covered; addInto finishes the tail.
func addBlocks(dst, src []float32) int {
	n := len(dst) &^ 7
	if !HasAVX2 || n == 0 {
		return 0
	}
	addBlocksAVX2(&dst[0], &src[0], int64(n))
	return n
}

// nonFiniteAVX2 reports whether any of x[0:n], n a positive multiple of
// 8, has an exponent field of all ones (NaN or ±Inf).
//
//go:noescape
func nonFiniteAVX2(x *float32, n int64) bool

// finiteBlocks checks the leading whole 8-lane blocks of x and returns
// how many elements it covered and whether all of them were finite;
// AllFinite checks the tail.
func finiteBlocks(x []float32) (int, bool) {
	n := len(x) &^ 7
	if !HasAVX2 || n == 0 {
		return 0, true
	}
	return n, !nonFiniteAVX2(&x[0], int64(n))
}
