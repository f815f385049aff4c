// Package bitutil provides small bit-manipulation helpers shared by the
// circuit, multiplier, and gradient packages. All helpers operate on
// operands of a configurable bit width B (1 <= B <= 16), matching the
// unsigned integer multipliers studied in the paper.
package bitutil

import "fmt"

// MaxBits is the largest operand bit width supported by the library.
// DNN accelerators use at most 8-bit operands (the paper cites [21]);
// 16 leaves headroom for experimentation while keeping LUTs (2^(2B)
// entries) at a manageable 4G ceiling that callers are expected to
// avoid in practice.
const MaxBits = 16

// Mask returns a value with the low b bits set.
func Mask(b int) uint32 {
	if b <= 0 {
		return 0
	}
	if b >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << uint(b)) - 1
}

// Bit returns the i-th bit (0 = LSB) of v as 0 or 1.
func Bit(v uint32, i int) uint32 {
	return (v >> uint(i)) & 1
}

// CheckWidth panics unless 1 <= bits <= MaxBits. It is used by
// constructors that accept an operand width so misuse fails loudly at
// setup time rather than corrupting LUT indexing later.
func CheckWidth(bits int) {
	if bits < 1 || bits > MaxBits {
		panic(fmt.Sprintf("bitutil: operand width %d outside [1,%d]", bits, MaxBits))
	}
}

// CheckOperand panics if v does not fit in bits bits.
func CheckOperand(v uint32, bits int) {
	if v > Mask(bits) {
		panic(fmt.Sprintf("bitutil: operand %d does not fit in %d bits", v, bits))
	}
}

// NumInputs returns the number of distinct operand values for a width,
// i.e. 2^bits.
func NumInputs(bits int) int {
	return 1 << uint(bits)
}

// NumPairs returns the number of (W, X) operand pairs for a width,
// i.e. 2^(2*bits). It is the LUT size used throughout the library.
func NumPairs(bits int) int {
	return 1 << uint(2*bits)
}

// PairIndex flattens an operand pair into a LUT index: w*2^bits + x.
func PairIndex(w, x uint32, bits int) int {
	return int(w)<<uint(bits) | int(x)
}

// LeadingOnePos returns the position of the most significant set bit of
// v (0 = LSB). It returns -1 for v == 0. DRUM-style segmented
// multipliers use it to locate the dynamic range of an operand.
func LeadingOnePos(v uint32) int {
	if v == 0 {
		return -1
	}
	p := 0
	for v > 1 {
		v >>= 1
		p++
	}
	return p
}

// AbsDiff returns |a-b| for int64 operands without overflow for the
// magnitudes used here (products of 16-bit operands).
func AbsDiff(a, b int64) int64 {
	if a >= b {
		return a - b
	}
	return b - a
}
