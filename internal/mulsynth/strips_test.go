package mulsynth

import "testing"

// gridCheck asserts EvalStrips(DecomposeStrips(m)) == m.Mul over the
// full 2^B x 2^B operand grid.
func gridCheck(t *testing.T, name string, m PPMask, comp uint32) []Strip {
	t.Helper()
	strips := DecomposeStrips(m)
	n := uint32(1) << uint(m.Bits)
	for w := uint32(0); w < n; w++ {
		for x := uint32(0); x < n; x++ {
			got := EvalStrips(strips, w, x, comp)
			want := m.Mul(w, x, comp)
			if got != want {
				t.Fatalf("%s: strips(%d,%d) = %d, mask.Mul = %d", name, w, x, got, want)
			}
		}
	}
	return strips
}

func TestDecomposeStripsExact(t *testing.T) {
	cases := []struct {
		name string
		mask PPMask
		comp uint32
		nT   int // expected strip count, -1 to skip
	}{
		// The accurate array multiplier is one full rectangle.
		{"full8", FullMask(8), 0, 1},
		{"full4", FullMask(4), 7, 1},
		// Truncation: row i keeps columns j >= k-i, so every row with a
		// nonempty pattern is its own strip (B - max(0, k-2B+1) of them,
		// 7 for the paper's mul7u_rm6).
		// mul7u_rm6: rows 0..6 all nonempty and distinct.
		{"trunc7_6", TruncMask(7, 6), 0, 7},
		// mul8u_rm8: row 0 keeps nothing, rows 1..7 are distinct.
		{"trunc8_8", TruncMask(8, 8), 0, 7},
		// mul6u_rm4: rows 0..3 distinct, rows 4 and 5 both full.
		{"trunc6_4", TruncMask(6, 4), 0, 5},
		// Row perforation: the surviving rows all keep every column, so
		// they merge into a single strip.
		{"perf8_25", perforationMask(8, 2, 5), 0, 1},
		{"perf6_0", perforationMask(6, 0), 9, 1},
		// Scattered deletions on top of truncation (the registry's
		// fitted stand-in shape).
		{"trunc+extras", TruncMask(8, 6).Delete(0, 6).Delete(1, 5).Delete(3, 3), 0, -1},
	}
	for _, c := range cases {
		strips := gridCheck(t, c.name, c.mask, c.comp)
		if c.nT >= 0 && len(strips) != c.nT {
			t.Errorf("%s: got %d strips, want %d", c.name, len(strips), c.nT)
		}
		if len(strips) > c.mask.Bits {
			t.Errorf("%s: %d strips exceeds the B-strip bound", c.name, len(strips))
		}
	}
}

// TestDecomposeStripsPicksSmallerGrouping: when the column grouping
// yields fewer rectangles than the row grouping, DecomposeStrips must
// return the column one (and vice versa).
func TestDecomposeStripsPicksSmallerGrouping(t *testing.T) {
	// Rows 011, 011, 101: two distinct row patterns but three distinct
	// column patterns ({2}, {0,1}, {0,1,2}).
	m := PPMask{Bits: 3, Keep: [][]bool{
		{false, true, true},
		{false, true, true},
		{true, false, true},
	}}
	if got := len(gridCheck(t, "rows-win", m, 0)); got != 2 {
		t.Errorf("row-favoured mask: got %d strips, want 2", got)
	}
	// The transpose must come out at 2 as well, via column grouping.
	mt := PPMask{Bits: 3, Keep: [][]bool{
		{false, false, true},
		{true, true, false},
		{true, true, true},
	}}
	if got := len(gridCheck(t, "cols-win", mt, 0)); got != 2 {
		t.Errorf("column-favoured mask: got %d strips, want 2", got)
	}
}

func TestDecomposeStripsAllDeleted(t *testing.T) {
	m := TruncMask(4, 7) // i+j < 7 removes every pp at B=4
	strips := DecomposeStrips(m)
	if strips == nil || len(strips) != 0 {
		t.Fatalf("all-deleted mask: got %v, want empty non-nil slice", strips)
	}
	if got := EvalStrips(strips, 15, 15, 3); got != 3 {
		t.Fatalf("empty strips eval = %d, want comp", got)
	}
}

func TestStripBounds(t *testing.T) {
	strips := DecomposeStrips(TruncMask(7, 6))
	if got := StripMax(strips, 7); got != 15808 {
		t.Errorf("StripMax(mul7u_rm6) = %d, want 15808", got)
	}
	if got := StripTermMax(strips, 7); got != 8128 {
		t.Errorf("StripTermMax(mul7u_rm6) = %d, want 8128 (row 6: 64*127)", got)
	}
	full := DecomposeStrips(FullMask(8))
	if got := StripMax(full, 8); got != 255*255 {
		t.Errorf("StripMax(full8) = %d, want %d", got, 255*255)
	}
	// Brute-force cross-check of the all-ones-attains-max claim.
	for _, mask := range []PPMask{TruncMask(6, 5), perforationMask(5, 1, 3)} {
		s := DecomposeStrips(mask)
		n := uint32(1) << uint(mask.Bits)
		var mx, tmx uint32
		for w := uint32(0); w < n; w++ {
			for x := uint32(0); x < n; x++ {
				if v := EvalStrips(s, w, x, 0); v > mx {
					mx = v
				}
				for _, st := range s {
					if v := (w & st.WMask) * (x & st.XMask); v > tmx {
						tmx = v
					}
				}
			}
		}
		if mx != StripMax(s, mask.Bits) {
			t.Errorf("StripMax brute force %d != %d", mx, StripMax(s, mask.Bits))
		}
		if tmx != StripTermMax(s, mask.Bits) {
			t.Errorf("StripTermMax brute force %d != %d", tmx, StripTermMax(s, mask.Bits))
		}
	}
}
