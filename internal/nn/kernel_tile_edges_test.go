package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// The forward tile work at its edges: the operand-tile load's SIMD pass
// (whole 32-row chunks) next to its Go loop (the rows after them and the
// zero pad up to the next chunk), the arith row's kernels over padded
// tiles, its four-channel pair kernel next to the one-channel calls for
// the channels after the last group of four, the skinny row's one-row
// calls over lane chunks padded to whole chunks, and k split at
// fwdKTile. Every case runs through ApproxConv2D's Forward and Infer
// and is held to ForwardGEMMRef with Float32bits equality.

// tileEdgeMults are a 6-bit, a 7-bit (pair kernel) and an 8-bit (word
// kernel) registry multiplier.
var tileEdgeMults = []string{"mul6u_rm4", "mul7u_rm6", "mul8u_rm8"}

// fwdOracle is the layer's forward from its last Forward's quantization
// parameters: every patch entry quantized by the scalar quant.Params
// method, ForwardGEMMRef, then NCHW.
func fwdOracle(c *ApproxConv2D, x *tensor.Tensor) *tensor.Tensor {
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	n, k := x.Shape[0], g.K()
	rows := n * g.OutH * g.OutW
	cols := im2colRows(x, g)
	xq := make([]uint8, rows*k)
	for i, v := range cols.Data {
		xq[i] = uint8(c.px.Quantize(v))
	}
	wq := make([]uint8, c.OutC*k)
	for i, v := range c.Weight.Value.Data {
		wq[i] = uint8(pwAt(c.w.pw, i/k).Quantize(v))
	}
	flat := c.op.ForwardGEMMRef(xq, wq, rows, c.OutC, k, c.w.pw, c.px, c.Bias.Value.Data)
	y := tensor.New(n, g.OutC, g.OutH, g.OutW)
	rowsToNCHWInto(y, flat, n, g)
	return y
}

// checkForwardEdge runs a 1x1 conv of inC = k input channels on one
// image of 1 x rows positions — a GEMM of rows x outC x k — through
// Forward and Infer, and compares both with fwdOracle. fill, when set,
// replaces the random input. It returns the layer and the forward row
// the GEMM took.
func checkForwardEdge(t *testing.T, op *Op, rows, outC, k int, seed int64, fill func(c *ApproxConv2D, x *tensor.Tensor)) (*ApproxConv2D, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewApproxConv2D("edge", k, outC, 1, 1, 0, op, rng)
	c.Bias.Value.RandNormal(rng, 0.1)
	x := tensor.New(1, k, 1, rows)
	x.RandNormal(rng, 1)
	if fill != nil {
		fill(c, x)
	}
	got := c.Forward(x, true)
	requireSameBits(t, "Forward", got.Data, fwdOracle(c, x).Data)
	want := got.Clone()
	requireSameBits(t, "Infer", c.Infer(x).Data, want.Data)
	return c, op.ForwardPath(rows, outC, k)
}

// TestForwardTileEdges crosses channel counts around the groups of four
// with row counts that leave the load a tail and the strip kernels a
// padded tile (44 and 48 are the tiles the sweep's shapes met), and k
// from one column (odd, the pair kernel's virtual column) to past two
// fwdKTile splits, under each of tileEdgeMults; then the skinny row at
// row counts from one to 31. With AVX2 the rows >= 32 cases must reach the arith row
// and the skinny ones arith_skinny.
func TestForwardTileEdges(t *testing.T) {
	for _, name := range tileEdgeMults {
		op := STEOp(lookupMult(t, name))
		for _, outC := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			for _, rows := range []int{31, 33, 44, 48, 63, 65, 97} {
				for _, k := range []int{1, 2, 3, 255, 256, 257, 513} {
					t.Run(fmt.Sprintf("%s/outC=%d/rows=%d/k=%d", name, outC, rows, k), func(t *testing.T) {
						_, path := checkForwardEdge(t, op, rows, outC, k, int64(outC*1e6+rows*1e3+k), nil)
						if hasGemmAsm && rows >= arithLanes && path != FwdPathArith {
							t.Fatalf("dispatched to %s, want %s", path, FwdPathArith)
						}
					})
				}
			}
		}
		// The skinny row: one row to 31, over one lane chunk, and one or
		// two plus a padded remainder.
		for _, outC := range []int{32, 37, 38, 77} {
			for _, rows := range []int{1, 3, 4, 5, 6, 7, 31} {
				for _, k := range []int{1, 3, 257} {
					t.Run(fmt.Sprintf("%s/skinny/outC=%d/rows=%d/k=%d", name, outC, rows, k), func(t *testing.T) {
						_, path := checkForwardEdge(t, op, rows, outC, k, int64(outC*1e6+rows*1e3+k), nil)
						if hasGemmAsm && path != FwdPathArithSkinny {
							t.Fatalf("dispatched to %s, want %s", path, FwdPathArithSkinny)
						}
					})
				}
			}
		}
	}
}

// TestForwardTileSaturated puts every operand level at 2^B - 1 in tiles
// fwdKTile deep: the largest row sums the load's uint16 pass can meet
// (fwdKTile*255 at eight bits) and the largest products on every lane
// of the strip kernels. The weights are one positive value, which
// quantizes to the top level; the input is far above the calibrated
// range, so it clips there.
func TestForwardTileSaturated(t *testing.T) {
	for _, name := range tileEdgeMults {
		op := STEOp(lookupMult(t, name))
		top := uint8(1<<op.Bits - 1)
		for _, k := range []int{fwdKTile, 2 * fwdKTile} {
			for _, sh := range []struct{ rows, outC int }{{97, 9}, {64, 8}, {31, 40}} {
				t.Run(fmt.Sprintf("%s/rows=%d/outC=%d/k=%d", name, sh.rows, sh.outC, k), func(t *testing.T) {
					c, _ := checkForwardEdge(t, op, sh.rows, sh.outC, k, 7, func(c *ApproxConv2D, x *tensor.Tensor) {
						c.Weight.Value.Fill(0.5)
						c.Weight.Touch()
						c.Forward(x, true) // calibrate on N(0, 1)
						x.Fill(1e3)
					})
					for _, levels := range [][]uint8{c.xq, c.w.lq} {
						for i, v := range levels {
							if v != top {
								t.Fatalf("level %d = %d, want %d", i, v, top)
							}
						}
					}
				})
			}
		}
	}
}

// TestLoadTileMatchesScalar holds loadTile — the SIMD pass over whole
// 32-row chunks and the Go loop after it — to a plain copy and sum, at
// row counts on, off and under the chunk, column counts up to fwdKTile,
// random and all-255 levels, from a row offset into a wider matrix and
// onto row sums that already hold a value, into a tile whose stride is
// padded to whole chunks and whose pad must come back zero.
func TestLoadTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nR := range []int{1, 31, 32, 33, 63, 64} {
		for _, nK := range []int{1, 2, 3, 255, fwdKTile} {
			for _, top := range []bool{false, true} {
				rows, lo, kb := nR+37, 5, 3
				xT := make([]uint8, (kb+nK)*rows)
				for i := range xT {
					xT[i] = uint8(rng.Intn(256))
					if top {
						xT[i] = 255
					}
				}
				ld := padLanes(nR)
				xt := make([]uint8, nK*ld)
				for i := range xt {
					xt[i] = 0xA5
				}
				sumX := make([]int64, nR)
				want := make([]int64, nR)
				for r := range sumX {
					sumX[r] = int64(r) * 1000
					want[r] = sumX[r]
				}
				loadTile(xt, sumX, xT, rows, lo, nR, ld, kb, nK)
				for i := 0; i < nK; i++ {
					for r := 0; r < ld; r++ {
						var v uint8
						if r < nR {
							v = xT[(kb+i)*rows+lo+r]
							want[r] += int64(v)
						}
						if xt[i*ld+r] != v {
							t.Fatalf("nR=%d nK=%d top=%v: xt[%d][%d] = %d, want %d", nR, nK, top, i, r, xt[i*ld+r], v)
						}
					}
				}
				for r := range want {
					if sumX[r] != want[r] {
						t.Fatalf("nR=%d nK=%d top=%v: sumX[%d] = %d, want %d", nR, nK, top, r, sumX[r], want[r])
					}
				}
			}
		}
	}
}
