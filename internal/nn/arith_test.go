package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/tensor"
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
				if af.cwSpread != nil || af.xmPair != nil {
					t.Fatalf("%s: pair tables built despite pairOK=false", m.Name())
				}
				return
			}
			if af.cadPair < 1 {
				t.Fatalf("%s: cadPair = %d, want >= 1", m.Name(), af.cadPair)
			}
			if len(af.cwSpread) != 2*n {
				t.Fatalf("%s: len(cwSpread) = %d, want 2 per level (%d)", m.Name(), len(af.cwSpread), 2*n)
			}
			for i, v := range af.cw16 {
				if v > 127 {
					t.Fatalf("%s: cw16[%d] = %d exceeds the VPMADDUBSW signed-byte gate", m.Name(), i, v)
				}
				// Strip tn's byte pair in the level's spread words: the
				// coefficient, then the zero the partner's byte is ORed into.
				l, tn := i/af.nT, i%af.nT
				if got := uint16(af.cwSpread[2*l+tn/4] >> (16 * (tn % 4))); got != v {
					t.Fatalf("%s: spread word of level %d, strip %d holds %#x, cw16 %d", m.Name(), l, tn, got, v)
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

// pairStreamRef is the byte loop the spread-word stream replaced: per
// output channel and k-pair, 2*nT single-byte stores, channels back to
// back. TestPairStreamMatchesByteLoop's oracle.
func pairStreamRef(af *arithForm, wq []uint8, outC, k int) []uint8 {
	nT, nKp := af.nT, (k+1)/2
	out := make([]uint8, outC*nKp*nT*2)
	for oc := 0; oc < outC; oc++ {
		wr := wq[oc*k : (oc+1)*k]
		for p := 0; p < nKp; p++ {
			row := out[(oc*nKp+p)*nT*2:][:nT*2]
			for t := 0; t < nT; t++ {
				row[2*t] = uint8(af.cw16[int(wr[2*p])*nT+t])
				if 2*p+1 < k {
					row[2*t+1] = uint8(af.cw16[int(wr[2*p+1])*nT+t])
				}
			}
		}
	}
	return out
}

// TestPairStreamMatchesByteLoop builds the pair stream of every registry
// multiplier the pair kernel takes, on the worker pool as arithSetup
// does, at odd and even k, and requires every channel's pairs to equal
// the byte loop's (what the slack after them holds is nobody's).
func TestPairStreamMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, e := range appmult.Registry() {
		op := STEOp(e.Mult)
		op.ensurePadded()
		af := op.arith
		if af == nil || !af.pairOK {
			continue
		}
		levels := 1 << uint(op.Bits)
		for _, k := range []int{1, 2, 9, 27, 72, 75, 256, 577} {
			const outC = 40
			wq := make([]uint8, outC*k)
			for i := range wq {
				wq[i] = uint8(rng.Intn(levels))
			}
			wq[len(wq)-1] = uint8(levels - 1)
			want := pairStreamRef(af, wq, outC, k)
			row, n := af.pairRow(k), (k+1)/2*af.nT*2
			run := pairStreamRun{cwp: make([]uint8, outC*row), wq: wq, af: af, k: k}
			tensor.ParallelRowsOn(outC, &run)
			for oc := 0; oc < outC; oc++ {
				if got := run.cwp[oc*row:][:n]; !bytes.Equal(got, want[oc*n:][:n]) {
					t.Fatalf("%s k=%d: channel %d's stream differs from the byte loop", e.Mult.Name(), k, oc)
				}
			}
		}
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
