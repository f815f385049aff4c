package nn

import (
	"testing"

	"github.com/appmult/retrain/internal/appmult"
)

// These tests pin the construction-time guarantees of the closed-form
// ("arith") forward tier: for every registry multiplier that exposes a
// partial-product mask, the synthesized strip evaluator must reproduce
// the LUT bit for bit over the full 2^B x 2^B operand grid, and the
// kernel coefficient tables must be mutually consistent. Multipliers
// without a mask structure (the DRUM-style mul8u_1DMU) must not get the
// tier at all.

// TestArithFormRegistryGrid walks the whole registry. newArithForm
// already refuses to build a form that fails grid verification, so an
// op silently losing the tier is the failure mode this test exists to
// catch — it asserts the tier is PRESENT for the entire mask family,
// then re-verifies the grid independently through evalScalar.
func TestArithFormRegistryGrid(t *testing.T) {
	for _, e := range appmult.Registry() {
		m := e.Mult
		t.Run(m.Name(), func(t *testing.T) {
			op := STEOp(m)
			op.ensurePadded()

			_, isMasked := m.(*appmult.Masked)
			_, isAccurate := m.(*appmult.Accurate)
			wantArith := isMasked || isAccurate
			if got := op.arith != nil; got != wantArith {
				t.Fatalf("%s: arith tier present = %v, want %v", m.Name(), got, wantArith)
			}
			if op.arith == nil {
				return
			}

			af := op.arith
			n := 1 << uint(op.Bits)
			for w := 0; w < n; w++ {
				for x := 0; x < n; x++ {
					want := op.LUT[w*n+x]
					if got := af.evalScalar(uint32(w), uint32(x)) + af.comp; got != want {
						t.Fatalf("%s: evalScalar(%d,%d)+comp = %d, LUT %d", m.Name(), w, x, got, want)
					}
				}
			}

			// Coefficient-table consistency: the word tables are the
			// source of truth; the pair tables must be byte-for-byte
			// projections of them within the pair kernel's gates.
			if af.cadWord < 1 {
				t.Fatalf("%s: cadWord = %d, want >= 1", m.Name(), af.cadWord)
			}
			// The skinny row's mirror images: activation-side coefficients,
			// weight-side masks, and the pair gate on the activation masks.
			xmMax := uint16(0)
			for tn, s := range af.strips {
				xmMax = max(xmMax, af.xm16[tn])
				if af.wm16[tn] != uint16(s.WMask) {
					t.Fatalf("%s: wm16[%d] = %#x, strip mask %#x", m.Name(), tn, af.wm16[tn], s.WMask)
				}
				for x := 0; x < n; x++ {
					if got, want := af.cx16[x*af.nT+tn], uint16(x)&af.xm16[tn]; got != want {
						t.Fatalf("%s: cx16[%d][%d] = %d, want %d", m.Name(), x, tn, got, want)
					}
				}
			}
			if af.pairOKT && (xmMax > 127 || af.cadPair < 1) {
				t.Fatalf("%s: pairOKT with activation mask %#x, cadPair %d", m.Name(), xmMax, af.cadPair)
			}
			if (af.wmPair != nil) != af.pairOKT {
				t.Fatalf("%s: wmPair built = %v, pairOKT = %v", m.Name(), af.wmPair != nil, af.pairOKT)
			}
			for tn, mask := range af.wmPair {
				if want := af.wm16[tn] | af.wm16[tn]<<8; mask != want {
					t.Fatalf("%s: wmPair[%d] = %#x, want %#x", m.Name(), tn, mask, want)
				}
			}
			if !af.pairOK {
				if af.cwb != nil || af.xmPair != nil {
					t.Fatalf("%s: pair tables built despite pairOK=false", m.Name())
				}
				return
			}
			if af.cadPair < 1 {
				t.Fatalf("%s: cadPair = %d, want >= 1", m.Name(), af.cadPair)
			}
			if len(af.cwb) != len(af.cw16) {
				t.Fatalf("%s: len(cwb) = %d, len(cw16) = %d", m.Name(), len(af.cwb), len(af.cw16))
			}
			for i, v := range af.cw16 {
				if v > 127 {
					t.Fatalf("%s: cw16[%d] = %d exceeds the VPMADDUBSW signed-byte gate", m.Name(), i, v)
				}
				if uint16(af.cwb[i]) != v {
					t.Fatalf("%s: cwb[%d] = %d, cw16 %d", m.Name(), i, af.cwb[i], v)
				}
			}
			for tn, mask := range af.xm16 {
				if want := mask | mask<<8; af.xmPair[tn] != want {
					t.Fatalf("%s: xmPair[%d] = %#x, want %#x", m.Name(), tn, af.xmPair[tn], want)
				}
			}
		})
	}
}

// TestArithPairCoverage documents which registry families reach which
// kernel flavour: every 6/7-bit mask op satisfies the pair gates, the
// 8-bit mask ops carry coefficients beyond the signed byte and fall to
// the word kernel.
func TestArithPairCoverage(t *testing.T) {
	for _, e := range appmult.Registry() {
		m := e.Mult
		op := STEOp(m)
		op.ensurePadded()
		if op.arith == nil {
			continue
		}
		wantPair := m.Bits() <= 7
		if op.arith.pairOK != wantPair {
			t.Errorf("%s (B=%d): pairOK = %v, want %v", m.Name(), m.Bits(), op.arith.pairOK, wantPair)
		}
		if op.arith.pairOKT != wantPair {
			t.Errorf("%s (B=%d): pairOKT = %v, want %v", m.Name(), m.Bits(), op.arith.pairOKT, wantPair)
		}
	}
}
