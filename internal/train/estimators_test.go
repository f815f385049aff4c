package train

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

func TestNormalizeEstimators(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
	}{
		{nil, []string{"ste", "smoothdiff"}},
		{[]string{}, []string{"ste", "smoothdiff"}},
		{[]string{"smoothdiff"}, []string{"ste", "smoothdiff"}},
		{[]string{"ste", "smoothdiff"}, []string{"ste", "smoothdiff"}},
		{[]string{"smoothdiff", "ste"}, []string{"ste", "smoothdiff"}},
		{[]string{"cvste"}, []string{"ste", "cvste"}},
		{[]string{"cvste", "cvste", "stochastic"}, []string{"ste", "cvste", "stochastic"}},
		{[]string{"ste"}, []string{"ste"}},
		{[]string{" smoothdiff(hws=8) ", ""}, []string{"ste", "smoothdiff(hws=8)"}},
	}
	for _, c := range cases {
		if got := NormalizeEstimators(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("NormalizeEstimators(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLegLabels(t *testing.T) {
	cases := map[string]string{
		"ste":                          "STE",
		"smoothdiff":                   "Ours",
		"smoothdiff(hws=8)":            "smoothdiff_hws8",
		"cvste":                        "cvste",
		"stochastic(seed=7)":           "stochastic_seed7",
		"stochastic(seed=7,samples=4)": "stochastic_seed7_samples4",
	}
	for spec, want := range cases {
		if got := legLabel(spec); got != want {
			t.Errorf("legLabel(%q) = %q, want %q", spec, got, want)
		}
	}
}

// estimatorShardModel builds the BN-free approximate stack used by the
// shard-invariance tests, with the given estimator op.
func estimatorShardModel(op *nn.Op, seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("estnet",
		nn.NewApproxConv2D("c1", 3, 4, 3, 1, 1, op, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewApproxLinear("fc", 4*4*4, 3, op, rng),
	)
}

func runEstimatorRun(t *testing.T, op *nn.Op, shards int) (Result, *nn.Sequential) {
	t.Helper()
	trainSet, testSet := tinyData(t, 3)
	model := estimatorShardModel(op, 17)
	res := Run(model, trainSet, testSet, Config{
		Epochs: 2, BatchSize: 10, Seed: 3, Shards: shards,
		Schedule:  optim.Schedule{{UntilEpoch: 2, LR: 5e-3}},
		Estimator: op.Grads.Estimator,
	})
	return res, model
}

func requireBitIdentical(t *testing.T, label string, ra, rb Result, ma, mb *nn.Sequential) {
	t.Helper()
	for e := range ra.TrainLoss {
		if ra.TrainLoss[e] != rb.TrainLoss[e] {
			t.Fatalf("%s: epoch %d loss %v != %v", label, e, ra.TrainLoss[e], rb.TrainLoss[e])
		}
	}
	pa, pb := ma.Params(), mb.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if math.Float32bits(pa[i].Value.Data[j]) != math.Float32bits(pb[i].Value.Data[j]) {
				t.Fatalf("%s: param %q[%d] differs: %g != %g",
					label, pa[i].Name, j, pa[i].Value.Data[j], pb[i].Value.Data[j])
			}
		}
	}
}

// TestDefaultEstimatorBitIdentity is the PR's acceptance gate: training
// through the GradEstimator seam with the default "smoothdiff" spec is
// Float32bits-identical to the pre-seam construction path
// (nn.DifferenceOp at the registry-clamped HWS) on an end-to-end run.
func TestDefaultEstimatorBitIdentity(t *testing.T) {
	entry, _ := appmult.Lookup("mul7u_rm6")
	// Pre-seam path: direct Difference table construction.
	legacy := nn.DifferenceOp(entry.Mult, entry.HWS)
	// Seam path: parse the default spec like cmd/paper does.
	seam, err := OpForSpec(entry, gradient.EstSmoothDiff)
	if err != nil {
		t.Fatal(err)
	}
	ra, ma := runEstimatorRun(t, legacy, 0)
	rb, mb := runEstimatorRun(t, seam, 0)
	requireBitIdentical(t, "smoothdiff", ra, rb, ma, mb)
}

// TestStochasticShardInvariance: the stochastic estimator bakes its
// randomness into the tables at construction (counter-based RNG), so
// a fixed seed must give bit-identical trajectories across -shards
// 1/2/4 on a BN-free model, exactly like the deterministic estimators.
func TestStochasticShardInvariance(t *testing.T) {
	entry, _ := appmult.Lookup("mul7u_rm6")
	op, err := OpForSpec(entry, "stochastic(seed=7)")
	if err != nil {
		t.Fatal(err)
	}
	ref, refModel := runEstimatorRun(t, op, 1)
	for _, p := range []int{2, 4} {
		op2, err := OpForSpec(entry, "stochastic(seed=7)")
		if err != nil {
			t.Fatal(err)
		}
		res, model := runEstimatorRun(t, op2, p)
		requireBitIdentical(t, "stochastic shards", ref, res, refModel, model)
	}
}

// TestRunMetaSidecar: a checkpointed run writes the TRCKPv1-adjacent
// metadata sidecar recording the estimator label.
func TestRunMetaSidecar(t *testing.T) {
	trainSet, testSet := tinyData(t, 3)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	op := nn.STEOp(appmult.NewAccurate(7))
	model := estimatorShardModel(op, 9)
	Run(model, trainSet, testSet, Config{
		Epochs: 1, BatchSize: 10, Seed: 4,
		Schedule:  optim.Schedule{{UntilEpoch: 1, LR: 5e-3}},
		CkptPath:  ckpt,
		Estimator: gradient.EstSTE,
	})
	meta, err := readRunMeta(ckpt)
	if err != nil {
		t.Fatalf("sidecar missing: %v", err)
	}
	want := RunMeta{Format: "TRCKPv1", Estimator: "ste", Seed: 4, Epochs: 1, BatchSize: 10}
	if meta != want {
		t.Errorf("RunMeta = %+v, want %+v", meta, want)
	}
}

// TestCompareLegsEstimators: a non-default estimator list produces one
// leg per normalized spec, with the baseline first and the legacy
// STE/Ours aliases pointing at the right legs.
func TestCompareLegsEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three legs")
	}
	sc := Scale{HW: 8, Width: 0.08, Train: 60, Test: 30, Epochs: 1, BatchSize: 20, LR0: 6e-3}
	r := TableII([]string{"mul6u_rm4"}, []string{"lenet"}, 3, sc, 5, nil, CompareOptions{
		Estimators: NormalizeEstimators([]string{"cvste", "stochastic(seed=7)"}),
	})[0]
	if len(r.Legs) != 3 {
		t.Fatalf("got %d legs, want 3", len(r.Legs))
	}
	wantEst := []string{"ste", "cvste", "stochastic"}
	for i, leg := range r.Legs {
		if leg.Estimator != wantEst[i] {
			t.Errorf("leg %d estimator %q, want %q", i, leg.Estimator, wantEst[i])
		}
		if len(leg.Result.TestTop1) != sc.Epochs {
			t.Errorf("leg %d: incomplete trajectory", i)
		}
		if leg.InitialTop1 != r.Legs[0].InitialTop1 {
			t.Errorf("leg %d initial %v differs from baseline %v", i, leg.InitialTop1, r.Legs[0].InitialTop1)
		}
	}
	if r.STE.FinalTop1() != r.Legs[0].Result.FinalTop1() {
		t.Error("STE alias does not match baseline leg")
	}
	if r.Ours.FinalTop1() != r.Legs[1].Result.FinalTop1() {
		t.Error("Ours alias does not match first non-baseline leg")
	}
	if r.Improve != r.Ours.FinalTop1()-r.STE.FinalTop1() {
		t.Error("Improve inconsistent with aliases")
	}
}

// readRunMeta loads the run-metadata sidecar of a checkpoint path.
func readRunMeta(ckptPath string) (RunMeta, error) {
	var meta RunMeta
	blob, err := os.ReadFile(MetaPath(ckptPath))
	if err != nil {
		return meta, err
	}
	err = json.Unmarshal(blob, &meta)
	return meta, err
}
