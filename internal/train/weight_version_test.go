package train

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tensor"
)

// versionModel is a small model with both approximate layer kinds, so
// every row below checks the weight-side state of a conv and of a
// linear layer.
func versionModel(seed int64) *nn.Sequential {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		panic("mul7u_rm6 missing")
	}
	op := nn.STEOp(e.Mult)
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("m",
		nn.NewApproxConv2D("conv", 2, 4, 3, 1, 1, op, rng),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewApproxLinear("fc", 4*6*6, 5, op, rng),
	)
}

func randomGrads(m *nn.Sequential, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		p.Grad.RandNormal(rng, 1)
	}
}

func bitsEqual(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestNoStaleWeightsAfterAnyWriter has one row per non-test writer of
// nn.Param.Value (the dist worker's state sync, which this package
// cannot import, has its twin in internal/dist): Predict so that every
// approximate layer holds weight-side state, write the weights through
// the writer, Predict again — the output must be, bit for bit, that of a
// fresh model holding the same weights, and must have moved. A rejected
// LoadParams is the one row that must change nothing, the versions
// included.
func TestNoStaleWeightsAfterAnyWriter(t *testing.T) {
	x := tensor.New(2, 2, 6, 6)
	x.RandNormal(rand.New(rand.NewSource(9)), 1)
	step := func(opt *optim.Adam) func(*testing.T, *nn.Sequential) *nn.Sequential {
		return func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			randomGrads(m, 5)
			opt.Step(m.Params(), 0.05)
			return m
		}
	}
	checkpoint := func(t *testing.T) []byte {
		var buf bytes.Buffer
		if err := nn.SaveParams(&buf, versionModel(2)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		// write mutates m's weights and returns the model whose next
		// Predict must be fresh (the Broadcast row: a replica).
		write    func(t *testing.T, m *nn.Sequential) *nn.Sequential
		rejected bool
	}{
		{name: "optim.Adam", write: step(optim.NewAdam())},
		{name: "nn.CopyParams", write: func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			nn.CopyParams(m, versionModel(2))
			return m
		}},
		{name: "nn.LoadParams", write: func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			if err := nn.LoadParams(bytes.NewReader(checkpoint(t)), m); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{name: "nn.LoadParams rejected", rejected: true, write: func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			blob := checkpoint(t)
			blob[len(blob)/2] ^= 1
			if err := nn.LoadParams(bytes.NewReader(blob), m); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			return m
		}},
		{name: "rollback restore", write: func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			// The weights the layers last saw are the stepped ones; the
			// restore brings back the snapshot's.
			nn.CopyParams(m, versionModel(2))
			opt := optim.NewAdam()
			snap := snapshot(m, m.Params(), opt)
			randomGrads(m, 5)
			opt.Step(m.Params(), 0.05)
			m.Predict(x)
			snap.restore(m, m.Params(), opt)
			return m
		}},
		{name: "ShardedStep.Broadcast", write: func(t *testing.T, m *nn.Sequential) *nn.Sequential {
			st := NewShardedStep(m, ShardedConfig{Shards: 2})
			defer st.Detach()
			replica := st.reps[1].model.(*nn.Sequential)
			replica.Predict(x)
			step(optim.NewAdam())(t, m)
			st.Broadcast()
			return replica
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := versionModel(1)
			before := m.Predict(x).Clone()
			var versions []uint64
			for _, p := range m.Params() {
				versions = append(versions, p.Version())
			}

			target := tc.write(t, m)
			got := target.Predict(x).Clone()
			want := models.Clone(target).Predict(x)
			if !bitsEqual(got.Data, want.Data) {
				t.Fatal("Predict after the write differs from a fresh model holding the same weights: stale weight-side state")
			}
			if moved := !bitsEqual(got.Data, before.Data); moved == tc.rejected {
				t.Fatalf("output moved = %v, want %v", moved, !tc.rejected)
			}
			if tc.rejected {
				for i, p := range m.Params() {
					if p.Version() != versions[i] {
						t.Errorf("%s: rejected write advanced the version %d -> %d", p.Name, versions[i], p.Version())
					}
				}
			}
		})
	}
}
