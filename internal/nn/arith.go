package nn

import (
	"math"

	"github.com/appmult/retrain/internal/mulsynth"
)

// The closed-form ("arith") forward tier: for multipliers whose kept
// partial products decompose into operand-mask rectangles (the
// truncation/perforation/deletion-mask family, see
// mulsynth.DecomposeStrips), the approximate product is
//
//	AM(w, x) = sum_t (w & wm_t) * (x & xm_t) + comp
//
// — pure arithmetic on masked bytes, no table lookup at all. The GEMM
// inner loop then needs no gather, which is what lets it vectorize:
// gemm_arith_amd64.s evaluates 32 rows per iteration in AVX2 registers,
// where the LUT tiers are stuck issuing one scalar load per MAC.
//
// An arithForm is synthesized at ensurePadded time and verified against
// the op's LUT over the full 2^B x 2^B operand grid before it is ever
// dispatched to; any mismatch (or a mask family the bounds below rule
// out) silently disables the tier, so it can only ever be a faster
// route to bit-identical results.

// arithLanes is the kernels' granularity: one chunk is 32 SIMD lanes —
// rows in the arith row, output channels in the skinny row (tiers.go).
const arithLanes = 32

// maxStrips caps the rectangles an arithForm accepts. DecomposeStrips
// guarantees at most B <= 8 for the supported widths; anything larger
// would mean the decomposition is no longer profitable anyway.
const maxStrips = 8

// arithForm holds the strip decomposition of one Op plus the
// precomputed per-level coefficient tables and the saturation/overflow
// gates for the two assembly kernels.
type arithForm struct {
	strips []mulsynth.Strip
	comp   uint32
	nT     int

	// Word kernel (gemmArithAccumAVX2) tables: cw16[w*nT+t] = w & wm_t,
	// xm16[t] = xm_t. Products are formed in 16-bit lanes (VPMULLW), so
	// the only gate is the lane accumulation budget cadWord.
	cw16 []uint16
	xm16 []uint16
	// cadWord is how many k-steps fit in a uint16 lane before widening:
	// floor(65535 / stripMax).
	cadWord int

	// Pair kernel (gemmArithPairAVX2) tables, valid only when pairOK:
	// level w's coefficients w & wm_t, each a byte (the VPMADDUBSW signed
	// operand, hence the <= 127 gate), spread over the even bytes of two
	// words, cwSpread[2w] strips 0-3 and cwSpread[2w+1] strips 4-7
	// (maxStrips), so a k-pair of the stream is two ORs and two stores
	// (buildPairStream); xmPair[t] = xm_t duplicated in both bytes of a
	// word. The kernel folds two k-steps into each madd; cadPair is its
	// lane budget in k-pairs.
	cwSpread []uint64
	xmPair   []uint16
	pairOK   bool
	cadPair  int

	// The skinny row's mirror images (roles swapped: lanes hold weight
	// levels and are masked with wm_t, an activation level supplies the
	// coefficients x & xm_t): cx16[x*nT+t] = x & xm_t and wm16[t] = wm_t
	// for the word kernel, wmPair[t] = wm_t in both bytes for the pair
	// kernel, which pairOKT admits when every xm_t fits VPMADDUBSW's
	// signed byte. xmQuad packs xm_t, in both bytes of a word, four
	// strips per uint64: the masks the skinny row cuts a k-pair's
	// coefficient bytes with, eight at a time (skinnyPairStream). The
	// budgets cadWord, cadPair and fits32 bound products and sums of
	// products, so they hold for either assignment of roles.
	cx16    []uint16
	wm16    []uint16
	wmPair  []uint16
	xmQuad  []uint64
	pairOKT bool

	// stripMax is the largest compensation-free product over the grid;
	// k*stripMax <= k*lutMax bounds the int32 accumulator exactly as the
	// LUT tiers' use32 gate does.
	stripMax uint32
}

// newArithForm synthesizes and verifies the closed-form evaluator for a
// mask/comp pair against the op's LUT. It returns nil when the
// decomposition is unavailable, degenerate, or fails grid verification.
func newArithForm(mask mulsynth.PPMask, comp uint32, bits int, lut []uint32) *arithForm {
	strips := mulsynth.DecomposeStrips(mask)
	if len(strips) == 0 || len(strips) > maxStrips {
		return nil
	}

	// Construction-time proof obligation: the strip form must reproduce
	// the LUT bit for bit over the entire operand grid. This is what
	// makes the arith tier safe to dispatch to blindly.
	n := 1 << uint(bits)
	for w := 0; w < n; w++ {
		row := lut[w<<uint(bits) : (w+1)<<uint(bits)]
		for x, want := range row {
			if mulsynth.EvalStrips(strips, uint32(w), uint32(x), comp) != want {
				return nil
			}
		}
	}

	af := &arithForm{
		strips:   strips,
		comp:     comp,
		nT:       len(strips),
		stripMax: mulsynth.StripMax(strips, bits),
	}
	if af.stripMax == 0 {
		// Constant-zero product (plus comp): nothing for the kernels to
		// accumulate and cadWord would be unbounded. Not worth a tier.
		return nil
	}
	termMax := mulsynth.StripTermMax(strips, bits)
	af.cadWord = int(math.MaxUint16 / af.stripMax)

	af.cw16 = make([]uint16, n*af.nT)
	af.cx16 = make([]uint16, n*af.nT)
	af.xm16 = make([]uint16, af.nT)
	af.wm16 = make([]uint16, af.nT)
	var wmMax, xmMax uint32
	for t, s := range strips {
		af.xm16[t], af.wm16[t] = uint16(s.XMask), uint16(s.WMask)
		wmMax, xmMax = max(wmMax, s.WMask), max(xmMax, s.XMask)
	}
	for v := 0; v < n; v++ {
		for t, s := range strips {
			af.cw16[v*af.nT+t] = uint16(uint32(v) & s.WMask)
			af.cx16[v*af.nT+t] = uint16(uint32(v) & s.XMask)
		}
	}

	// Pair-kernel gates: the coefficient rides in VPMADDUBSW's signed
	// byte operand (<= 127: the weight masks for the arith row, the
	// activation masks for the skinny one), each per-strip pair sum must
	// not saturate the signed 16-bit madd result (2*termMax <= 32767),
	// and at least one k-pair must fit the unsigned lane budget
	// (2*stripMax <= 65535).
	if 2*uint64(termMax) <= math.MaxInt16 && 2*uint64(af.stripMax) <= math.MaxUint16 {
		af.cadPair = int(math.MaxUint16 / (2 * af.stripMax))
		af.pairOK, af.pairOKT = wmMax <= 127, xmMax <= 127
	}
	if af.pairOK {
		af.cwSpread = make([]uint64, 2*n)
		for i, c := range af.cw16 {
			l, t := i/af.nT, i%af.nT
			af.cwSpread[2*l+t/4] |= uint64(c) << (16 * (t % 4))
		}
		af.xmPair = bothBytes(af.xm16)
	}
	if af.pairOKT {
		af.wmPair = bothBytes(af.wm16)
		af.xmQuad = make([]uint64, (af.nT+3)/4)
		for t, m := range bothBytes(af.xm16) {
			af.xmQuad[t/4] |= uint64(m) << (16 * (t % 4))
		}
	}
	return af
}

// pairSlack is how far past a channel's last k-pair buildPairStream's
// 16-byte stores may reach.
const pairSlack = 16

// pairRow is the length of one output channel's pair stream: ceil(k/2)
// k-pairs of nT byte pairs, then pairSlack bytes.
func (af *arithForm) pairRow(k int) int { return (k+1)/2*2*af.nT + pairSlack }

// bothBytes returns the byte masks with each duplicated in both bytes
// of its word: the pair kernel masks a byte pair with one VPAND.
func bothBytes(masks []uint16) []uint16 {
	out := make([]uint16, len(masks))
	for t, m := range masks {
		out[t] = m | m<<8
	}
	return out
}
