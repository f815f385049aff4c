package train

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tensor"
)

// shardModel builds a BN-free stack containing both approximate layer
// kinds — the architecture class for which sharded training promises
// bit-identity across shard counts.
func shardModel(seed int64) *nn.Sequential {
	op := nn.STEOp(appmult.NewAccurate(7))
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("shardnet",
		nn.NewApproxConv2D("c1", 3, 4, 3, 1, 1, op, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewApproxLinear("fc", 4*4*4, 3, op, rng),
	)
}

// shardBNModel adds a BatchNorm2D, exercising the sync-BN path.
func shardBNModel(seed int64) *nn.Sequential {
	op := nn.STEOp(appmult.NewAccurate(7))
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("shardbn",
		nn.NewApproxConv2D("c1", 3, 4, 3, 1, 1, op, rng),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewFlatten(),
		nn.NewLinear("fc", 4, 3, rng),
	)
}

// runSharded trains mk's model for two epochs at the given shard count.
// Its batch of 30 rows is a plan of four slices (8, 8, 8, 6), so up to
// four shards each hold a run of them.
func runSharded(t *testing.T, mk func(int64) *nn.Sequential, shards int) (Result, *nn.Sequential) {
	t.Helper()
	trainSet, testSet := tinyData(t, 3)
	model := mk(17)
	res := Run(model, trainSet, testSet, Config{
		Epochs: 2, BatchSize: 30, Seed: 3, Shards: shards,
		Schedule: optim.Schedule{{UntilEpoch: 2, LR: 5e-3}},
	})
	return res, model
}

// requireShardCountsBitIdentical trains mk's model at -shards 1 and at
// each of shards and requires the runs to agree bit for bit: losses,
// parameters, and layer state (observers, BatchNorm running
// statistics).
func requireShardCountsBitIdentical(t *testing.T, mk func(int64) *nn.Sequential, shards ...int) {
	t.Helper()
	ref, refModel := runSharded(t, mk, 1)
	for _, p := range shards {
		res, model := runSharded(t, mk, p)
		for e := range ref.TrainLoss {
			if math.Float64bits(res.TrainLoss[e]) != math.Float64bits(ref.TrainLoss[e]) {
				t.Fatalf("shards=%d epoch %d loss %v != shards=1 loss %v",
					p, e, res.TrainLoss[e], ref.TrainLoss[e])
			}
		}
		rp, pp := refModel.Params(), model.Params()
		for i := range rp {
			for j := range rp[i].Value.Data {
				if math.Float32bits(pp[i].Value.Data[j]) != math.Float32bits(rp[i].Value.Data[j]) {
					t.Fatalf("shards=%d param %q[%d] differs: %g != %g",
						p, rp[i].Name, j, pp[i].Value.Data[j], rp[i].Value.Data[j])
				}
			}
		}
		rs, ps := nn.CollectState(refModel), nn.CollectState(model)
		for i := range rs {
			for j := range rs[i] {
				if math.Float32bits(ps[i][j]) != math.Float32bits(rs[i][j]) {
					t.Fatalf("shards=%d state vector %d[%d] differs: %g != %g", p, i, j, ps[i][j], rs[i][j])
				}
			}
		}
	}
}

// TestShardedBitIdenticalAcrossShardCounts is the sharded engine's
// headline property: for a BN-free model, -shards 4 (and 3, and 0,
// which means 1) reproduces -shards 1 bit for bit — losses, parameters,
// and observer state — because the gradient-slice partition and
// reduction tree depend only on the batch, never on the shard count.
func TestShardedBitIdenticalAcrossShardCounts(t *testing.T) {
	requireShardCountsBitIdentical(t, shardModel, 0, 3, 4)
}

// TestShardedSyncBNBitIdenticalAcrossShardCounts: with BatchNorm the
// batch statistics are summed per slice of the same plan and folded in
// the same tree, whichever replica holds which slices — alone at
// -shards 1, through the sync groups at 2 (two slices a replica) and 4
// (one each) — so the runs agree bit for bit, running statistics
// included.
func TestShardedSyncBNBitIdenticalAcrossShardCounts(t *testing.T) {
	requireShardCountsBitIdentical(t, shardBNModel, 2, 4)
}

// TestShardedRunToRunDeterministic: same config, same seeds, two runs,
// identical trajectories — with and without BatchNorm.
func TestShardedRunToRunDeterministic(t *testing.T) {
	for name, mk := range map[string]func(int64) *nn.Sequential{"bnfree": shardModel, "syncbn": shardBNModel} {
		a, am := runSharded(t, mk, 3)
		b, bm := runSharded(t, mk, 3)
		for e := range a.TrainLoss {
			if a.TrainLoss[e] != b.TrainLoss[e] {
				t.Fatalf("%s: run-to-run loss diverged at epoch %d: %v vs %v",
					name, e, a.TrainLoss[e], b.TrainLoss[e])
			}
		}
		ap, bp := am.Params(), bm.Params()
		for i := range ap {
			for j := range ap[i].Value.Data {
				if ap[i].Value.Data[j] != bp[i].Value.Data[j] {
					t.Fatalf("%s: run-to-run param %q diverged", name, ap[i].Name)
				}
			}
		}
	}
}

// TestShardedObserverMerge drives a ShardedStep directly and checks the
// deferred-observe protocol: after a step every replica's observers
// (and all other stateful layers) are bit-identical, and the observers
// actually saw the batch.
func TestShardedObserverMerge(t *testing.T) {
	model := shardModel(23)
	before := nn.CollectState(model)
	st := NewShardedStep(model, ShardedConfig{Shards: 3})
	defer st.Detach()

	rng := rand.New(rand.NewSource(2))
	x := tensor.New(12, 3, 8, 8)
	x.RandNormal(rng, 1)
	y := make([]int, 12)
	for i := range y {
		y[i] = i % 3
	}
	loss := st.Step(x, y)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("bad loss %v", loss)
	}

	reps := st.reps
	primary := nn.CollectState(reps[0].model)
	for r := 1; r < len(reps); r++ {
		state := nn.CollectState(reps[r].model)
		for i := range primary {
			for j := range primary[i] {
				if math.Float32bits(state[i][j]) != math.Float32bits(primary[i][j]) {
					t.Fatalf("replica %d state vector %d[%d] differs from primary", r, i, j)
				}
			}
		}
	}
	changed := false
	for i := range before {
		for j := range before[i] {
			if primary[i][j] != before[i][j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("observers did not record the batch")
	}
}

// TestShardedStepPanicPropagates: a poison batch must surface as a
// panic from Step (for the guarded step to count), not hang the workers.
func TestShardedStepPanicPropagates(t *testing.T) {
	model := shardBNModel(29)
	st := NewShardedStep(model, ShardedConfig{Shards: 2})
	defer st.Detach()
	x := tensor.New(4, 3, 8, 8)
	y := []int{0, 1, 99, 0} // out-of-range label panics inside the loss
	defer func() {
		if recover() == nil {
			t.Fatal("Step did not propagate the worker panic")
		}
	}()
	st.Step(x, y)
}
