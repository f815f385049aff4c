package train

import (
	"testing"
)

// TestTableIISharesReferences runs a two-multiplier sweep and checks
// the QAT reference is computed once per (model, bit width): both
// 6-bit rows must report the identical reference accuracy, and the
// result set must be complete and ordered.
func TestTableIISharesReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-row sweep")
	}
	sc := Scale{HW: 8, Width: 0.08, Train: 80, Test: 40, Epochs: 2, BatchSize: 20, LR0: 6e-3}
	rows := TableII([]string{"mul6u_rm4", "mul6u_acc"}, []string{"lenet"}, 4, sc, 5, nil, CompareOptions{})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Multiplier != "mul6u_rm4" || rows[1].Multiplier != "mul6u_acc" {
		t.Fatalf("row order: %s, %s", rows[0].Multiplier, rows[1].Multiplier)
	}
	if rows[0].RefTop1 != rows[1].RefTop1 {
		t.Errorf("same-width rows have different references: %v vs %v",
			rows[0].RefTop1, rows[1].RefTop1)
	}
	for _, r := range rows {
		if len(r.STE.TestTop1) != sc.Epochs || len(r.Ours.TestTop1) != sc.Epochs {
			t.Errorf("%s: incomplete trajectories", r.Multiplier)
		}
		if r.STE.Seconds <= 0 || r.Ours.Seconds <= 0 {
			t.Errorf("%s: runtime not recorded", r.Multiplier)
		}
	}
}

func TestTableIIUnknownMultiplierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown multiplier accepted")
		}
	}()
	TableII([]string{"mul99u_x"}, []string{"lenet"}, 4, TinyScale, 1, nil, CompareOptions{})
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "reduced", "small", "tiny"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Epochs == 0 {
			t.Errorf("%s: %v %+v", name, err, sc)
		}
	}
	if _, err := ScaleByName("gigantic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestScaleSchedule(t *testing.T) {
	sc := Scale{Epochs: 9, LR0: 2e-3}
	s := sc.Schedule()
	if s.At(1) != 2e-3 {
		t.Errorf("base rate %v", s.At(1))
	}
	if s.At(9) != 5e-4 {
		t.Errorf("final rate %v, want LR0/4", s.At(9))
	}
	// Zero LR0 means the paper's 1e-3.
	def := Scale{Epochs: 30}
	if def.Schedule().At(1) != 1e-3 {
		t.Error("default base rate is not 1e-3")
	}
}

// TestTableIILegStartsFromReference pins that a retraining leg starts
// from the QAT reference's whole state — BatchNorm running statistics
// and activation observers as well as parameters — on a BatchNorm model
// at TinyScale's geometry: on the accurate multiplier of the
// reference's own width the leg's model is the reference model, so its
// initial accuracy must equal the reference's, exactly.
func TestTableIILegStartsFromReference(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a reference and a leg")
	}
	sc := TinyScale
	sc.Train, sc.Test, sc.Epochs = 40, 40, 1
	rows := TableII([]string{"mul6u_acc"}, []string{"vgg11"}, 4, sc, 3, nil, CompareOptions{Estimators: []string{"ste"}})
	if len(rows) != 1 || len(rows[0].Legs) != 1 {
		t.Fatalf("got %d rows, want one row of one leg", len(rows))
	}
	if r := rows[0]; r.InitialTop1 != r.RefTop1 || r.Legs[0].InitialTop1 != r.RefTop1 {
		t.Errorf("leg initial top-1 %v (row %v), reference %v; want equal", r.Legs[0].InitialTop1, r.InitialTop1, r.RefTop1)
	}
}
