package mulsynth

import "testing"

func TestFaultSensitivityRanksLowColumnsCheap(t *testing.T) {
	bits := 5
	n := BuildAccurate("acc5", bits)
	impacts := FaultSensitivity(n, bits, 512, 7)
	if len(impacts) == 0 {
		t.Fatal("no gates analyzed")
	}
	// Every impact is a silicon gate with a finite NMED.
	var minI, maxI FaultImpact
	minI.NMEDPercent = 1e9
	for _, fi := range impacts {
		if fi.NMEDPercent < 0 {
			t.Fatalf("negative NMED for gate %d", fi.Gate)
		}
		if fi.StuckAt > 1 {
			t.Fatalf("bad stuck-at value %d", fi.StuckAt)
		}
		if fi.NMEDPercent < minI.NMEDPercent {
			minI = fi
		}
		if fi.NMEDPercent > maxI.NMEDPercent {
			maxI = fi
		}
	}
	// The spread must be real: some gates are nearly free to fault,
	// others catastrophic.
	if maxI.NMEDPercent < 10*(minI.NMEDPercent+1e-9) && maxI.NMEDPercent < 1 {
		t.Errorf("fault impact spread too small: [%v, %v]", minI.NMEDPercent, maxI.NMEDPercent)
	}
}

func TestFaultSensitivityDeterministic(t *testing.T) {
	n := BuildAccurate("acc4", 4)
	a := FaultSensitivity(n, 4, 256, 3)
	b := FaultSensitivity(n, 4, 256, 3)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFaultSensitivityLeavesNetlistIntact(t *testing.T) {
	bits := 4
	n := BuildAccurate("acc4", bits)
	_ = FaultSensitivity(n, bits, 128, 1)
	for w := uint32(0); w < 16; w++ {
		for x := uint32(0); x < 16; x++ {
			if got := uint32(n.EvaluateUint2(uint64(w), bits, uint64(x))); got != w*x {
				t.Fatalf("analysis mutated the netlist at (%d,%d)", w, x)
			}
		}
	}
}
