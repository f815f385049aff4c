package bitutil

import (
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		b    int
		want uint32
	}{
		{-1, 0}, {0, 0}, {1, 1}, {4, 0xF}, {8, 0xFF}, {16, 0xFFFF}, {31, 0x7FFFFFFF}, {32, 0xFFFFFFFF}, {40, 0xFFFFFFFF},
	}
	for _, c := range cases {
		if got := Mask(c.b); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.b, got, c.want)
		}
	}
}

func TestBit(t *testing.T) {
	v := uint32(0b1010)
	if Bit(v, 0) != 0 || Bit(v, 1) != 1 || Bit(v, 3) != 1 || Bit(v, 4) != 0 {
		t.Fatalf("Bit extraction wrong for %b", v)
	}
}

func TestCheckWidth(t *testing.T) {
	for _, ok := range []int{1, 4, 8, 16} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("CheckWidth(%d) panicked: %v", ok, r)
				}
			}()
			CheckWidth(ok)
		}()
	}
	for _, bad := range []int{0, -3, 17, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CheckWidth(%d) did not panic", bad)
				}
			}()
			CheckWidth(bad)
		}()
	}
}

func TestCheckOperand(t *testing.T) {
	CheckOperand(255, 8) // must not panic
	defer func() {
		if recover() == nil {
			t.Error("CheckOperand(256, 8) did not panic")
		}
	}()
	CheckOperand(256, 8)
}

func TestPairIndexRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 3, 7, 8} {
		n := NumInputs(bits)
		seen := make(map[int]bool, NumPairs(bits))
		for w := 0; w < n; w++ {
			for x := 0; x < n; x++ {
				idx := PairIndex(uint32(w), uint32(x), bits)
				if idx < 0 || idx >= NumPairs(bits) {
					t.Fatalf("bits=%d: index %d out of range", bits, idx)
				}
				if seen[idx] {
					t.Fatalf("bits=%d: duplicate index %d", bits, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestNumPairs(t *testing.T) {
	if NumPairs(7) != 1<<14 {
		t.Errorf("NumPairs(7) = %d, want %d", NumPairs(7), 1<<14)
	}
	if NumInputs(8) != 256 {
		t.Errorf("NumInputs(8) = %d", NumInputs(8))
	}
}

func TestLeadingOnePos(t *testing.T) {
	cases := []struct {
		v    uint32
		want int
	}{{0, -1}, {1, 0}, {2, 1}, {3, 1}, {128, 7}, {255, 7}, {256, 8}}
	for _, c := range cases {
		if got := LeadingOnePos(c.v); got != c.want {
			t.Errorf("LeadingOnePos(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLeadingOnePosProperty(t *testing.T) {
	f := func(v uint32) bool {
		if v == 0 {
			return LeadingOnePos(v) == -1
		}
		p := LeadingOnePos(v)
		return v >= 1<<uint(p) && (p == 31 || v < 1<<uint(p+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsDiff(t *testing.T) {
	if AbsDiff(3, 10) != 7 || AbsDiff(10, 3) != 7 || AbsDiff(-5, 5) != 10 {
		t.Error("AbsDiff wrong")
	}
	f := func(a, b int32) bool {
		d := AbsDiff(int64(a), int64(b))
		return d >= 0 && AbsDiff(int64(b), int64(a)) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
