package data

import (
	"math"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

func TestSyntheticShapesAndDeterminism(t *testing.T) {
	cfg := SynthConfig{Classes: 10, Train: 40, Test: 20, HW: 16, Seed: 1}
	tr, te := Synthetic(cfg)
	if tr.Len() != 40 || te.Len() != 20 {
		t.Fatalf("split sizes %d/%d", tr.Len(), te.Len())
	}
	if tr.X.Shape[2] != 16 || tr.X.Shape[1] != 3 {
		t.Fatalf("image shape %v", tr.X.Shape)
	}
	// Deterministic regeneration.
	tr2, _ := Synthetic(cfg)
	for i := range tr.X.Data {
		if tr.X.Data[i] != tr2.X.Data[i] {
			t.Fatal("generation not deterministic")
		}
	}
	// Different seed differs.
	tr3, _ := Synthetic(SynthConfig{Classes: 10, Train: 40, Test: 20, HW: 16, Seed: 2})
	same := true
	for i := range tr.X.Data {
		if tr.X.Data[i] != tr3.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSyntheticBalancedLabels(t *testing.T) {
	tr, _ := Synthetic(SynthConfig{Classes: 10, Train: 100, Test: 10, HW: 8, Seed: 3})
	counts := make([]int, 10)
	for _, y := range tr.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestSyntheticValueRange(t *testing.T) {
	tr, _ := Synthetic(SynthConfig{Classes: 4, Train: 16, Test: 4, HW: 8, Seed: 4})
	mn, mx := tensor.MinMax(tr.X.Data)
	if mn < -1.5 || mx > 1.5 {
		t.Errorf("values outside clamp: [%v, %v]", mn, mx)
	}
	if mx-mn < 0.5 {
		t.Errorf("images nearly constant: [%v, %v]", mn, mx)
	}
}

// TestSyntheticClassSeparability verifies the task is learnable: a
// nearest-class-mean classifier on raw pixels must beat chance by a
// wide margin, and the same-class/cross-class distance gap must be
// positive.
func TestSyntheticClassSeparability(t *testing.T) {
	classes := 10
	tr, te := Synthetic(SynthConfig{Classes: classes, Train: 200, Test: 100, HW: 16, Seed: 5})
	dim := 3 * 16 * 16
	means := make([][]float64, classes)
	counts := make([]int, classes)
	for c := range means {
		means[c] = make([]float64, dim)
	}
	for i := 0; i < tr.Len(); i++ {
		c := tr.Y[i]
		counts[c]++
		for j := 0; j < dim; j++ {
			means[c][j] += float64(tr.X.Data[i*dim+j])
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < te.Len(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := 0; c < classes; c++ {
			var d float64
			for j := 0; j < dim; j++ {
				diff := float64(te.X.Data[i*dim+j]) - means[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == te.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(te.Len())
	if acc < 0.5 {
		t.Errorf("nearest-mean accuracy %.2f; synthetic task not separable enough", acc)
	}
	if acc == 1.0 {
		t.Log("task fully separable by class means; consider more noise")
	}
}

func TestBatches(t *testing.T) {
	tr, _ := Synthetic(SynthConfig{Classes: 3, Train: 10, Test: 3, HW: 8, Seed: 6})
	bs := tr.Batches(4, 0)
	if len(bs) != 3 {
		t.Fatalf("%d batches, want 3", len(bs))
	}
	if bs[0].X.Shape[0] != 4 || bs[2].X.Shape[0] != 2 {
		t.Errorf("batch sizes %d,%d", bs[0].X.Shape[0], bs[2].X.Shape[0])
	}
	// Unshuffled batches preserve order.
	if bs[0].Y[0] != tr.Y[0] {
		t.Error("seed 0 should not shuffle")
	}
	// Shuffled batches are a permutation.
	bs2 := tr.Batches(4, 7)
	seen := make(map[int]int)
	for _, b := range bs2 {
		for _, y := range b.Y {
			seen[y]++
		}
	}
	want := map[int]int{0: 4, 1: 3, 2: 3}
	for k, v := range want {
		if seen[k] != v {
			t.Errorf("label %d count %d, want %d", k, seen[k], v)
		}
	}
}

func TestImageCopy(t *testing.T) {
	tr, _ := Synthetic(SynthConfig{Classes: 2, Train: 4, Test: 2, HW: 8, Seed: 8})
	img := tr.Image(1)
	if img.Shape[0] != 1 || img.Shape[1] != 3 {
		t.Fatalf("image shape %v", img.Shape)
	}
	img.Data[0] = 99
	if tr.X.Data[3*8*8] == 99 {
		t.Error("Image returned a view, want copy")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	for name, cfg := range map[string]SynthConfig{
		"classes": {Classes: 1, Train: 4, Test: 2, HW: 8},
		"train":   {Classes: 2, Train: 0, Test: 2, HW: 8},
		"hw":      {Classes: 2, Train: 4, Test: 2, HW: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s accepted", name)
				}
			}()
			Synthetic(cfg)
		}()
	}
}
