package train_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/dist"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// updateEngineGolden regenerates testdata/engine_golden.json from the
// current code: go test ./internal/train -run EngineGolden -update
var updateEngineGolden = flag.Bool("update", false, "rewrite the engine golden file")

// goldenRun pins one training run: CRC32s over the final parameter
// values, the nn.CollectState vectors and the per-epoch loss bits.
type goldenRun struct {
	Name   string `json:"name"`
	Params uint32 `json:"params_crc32"`
	State  uint32 `json:"state_crc32"`
	Loss   uint32 `json:"loss_crc32"`
}

// goldenAllocs pins the steady-state allocations of one ShardedStep
// Step+Broadcast; the test fails when a step allocates more.
type goldenAllocs struct {
	Name   string  `json:"name"`
	Allocs float64 `json:"allocs_per_step"`
}

type engineGolden struct {
	Runs   []goldenRun    `json:"runs"`
	Allocs []goldenAllocs `json:"allocs"`
}

// goldenSpec is the lenet job of the topology rows: an approximate
// multiplier and the paper's estimator, at tiny scale.
var goldenSpec = dist.Spec{
	Model: "lenet", Mult: "mul8u_rm8", Estimator: "smoothdiff", Scale: "tiny",
	Seed: 5, Epochs: 2, BatchSize: 10,
}

func crcF32(vecs ...[]float32) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, v := range vecs {
		for _, f := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

func pinRun(name string, m nn.Layer, res train.Result) goldenRun {
	var params [][]float32
	for _, p := range m.Params() {
		params = append(params, p.Value.Data)
	}
	h := crc32.NewIEEE()
	var b [8]byte
	for _, l := range res.TrainLoss {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return goldenRun{Name: name, Params: crcF32(params...), State: crcF32(nn.CollectState(m)...), Loss: h.Sum32()}
}

// runSpec trains goldenSpec in process with the given shard count
// (0 means 1).
func runSpec(t *testing.T, shards int) (nn.Layer, train.Result) {
	t.Helper()
	m, sc, err := goldenSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	trainSet, testSet := goldenSpec.Datasets(sc)
	res := train.Run(m, trainSet, testSet, train.Config{
		Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(),
		Seed: goldenSpec.Seed, Shards: shards,
	})
	return m, res
}

// runDist trains goldenSpec through a coordinator and in-process
// workers over loopback TCP.
func runDist(t *testing.T, workers int) (nn.Layer, train.Result) {
	t.Helper()
	m, sc, err := goldenSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	co, err := dist.NewCoordinator(m, goldenSpec, dist.CoordinatorConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		co.Close()
		cancel()
		wg.Wait()
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dist.RunWorker(ctx, dist.WorkerConfig{Coordinator: co.Addr(), Seed: int64(i)})
		}(i)
	}
	if err := co.AwaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	trainSet, testSet := goldenSpec.Datasets(sc)
	res := train.Run(m, trainSet, testSet, train.Config{
		Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(),
		Seed: goldenSpec.Seed, Stepper: co,
	})
	return m, res
}

// stepAllocs measures ShardedStep.Step+Broadcast on a warm replica set.
func stepAllocs(mk func(int64) *nn.Sequential, shards int) float64 {
	st := train.NewShardedStep(mk(23), train.ShardedConfig{Shards: shards})
	defer st.Detach()
	x := tensor.New(12, 3, 8, 8)
	x.RandNormal(rand.New(rand.NewSource(2)), 1)
	y := make([]int, 12)
	for i := range y {
		y[i] = i % 3
	}
	step := func() {
		st.Step(x, y)
		st.Broadcast()
	}
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(20, step)
}

// TestEngineGolden pins every training topology against a golden file
// generated before the topologies shared one slice engine, so a change
// common to all of them — invisible to the cross-topology bit-identity
// tests — still fails here. The lenet rows run one approximate job at
// Shards 0 (which means 1, so its row equals the next), 1 and 2 and
// over two dist workers; the sync-BN row runs the
// BatchNorm model at Shards 2. The allocation rows bound ShardedStep's
// steady-state Step+Broadcast at the golden counts. If a change is an
// intended semantic break, regenerate with -update and say so in the
// commit.
func TestEngineGolden(t *testing.T) {
	var got engineGolden
	for _, shards := range []int{0, 1, 2} {
		m, res := runSpec(t, shards)
		got.Runs = append(got.Runs, pinRun([]string{"lenet/shards0", "lenet/shards1", "lenet/shards2"}[shards], m, res))
	}
	m, res := runDist(t, 2)
	got.Runs = append(got.Runs, pinRun("lenet/dist2", m, res))
	res, bm := train.RunSharded(t, train.ShardBNModel, 2)
	got.Runs = append(got.Runs, pinRun("shardbn/shards2", bm, res))
	if !raceEnabled {
		for _, row := range []struct {
			name   string
			mk     func(int64) *nn.Sequential
			shards int
		}{
			{"bnfree/p1", train.ShardModel, 1},
			{"bnfree/p2", train.ShardModel, 2},
			{"syncbn/p1", train.ShardBNModel, 1},
			{"syncbn/p2", train.ShardBNModel, 2},
		} {
			got.Allocs = append(got.Allocs, goldenAllocs{Name: row.name, Allocs: stepAllocs(row.mk, row.shards)})
		}
	}

	path := filepath.Join("testdata", "engine_golden.json")
	if *updateEngineGolden {
		if raceEnabled {
			t.Fatal("regenerate without -race: the allocation rows need exact counts")
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	var want engineGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if len(want.Runs) != len(got.Runs) {
		t.Fatalf("golden file has %d runs, test produced %d", len(want.Runs), len(got.Runs))
	}
	for i, w := range want.Runs {
		if g := got.Runs[i]; g != w {
			t.Errorf("%s: got params %08x state %08x loss %08x, golden %s: %08x %08x %08x",
				g.Name, g.Params, g.State, g.Loss, w.Name, w.Params, w.State, w.Loss)
		}
	}
	for i, g := range got.Allocs {
		w := want.Allocs[i]
		if g.Name != w.Name || g.Allocs > w.Allocs {
			t.Errorf("%s: %.0f allocations per Step+Broadcast, golden %s: %.0f", g.Name, g.Allocs, w.Name, w.Allocs)
		}
	}
}
