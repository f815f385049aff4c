package train

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/wire"
)

// Training checkpoint format (little endian, in wire.Seal's magic/CRC
// envelope):
//
//	magic    [8]byte "TRCKPv1\n"
//	seed     int64
//	epoch    uint32   (completed epochs)
//	nEpochs  uint32   (recorded trajectory length)
//	trainLoss, testTop1, testTop5  float64 x nEpochs each
//	seconds  float64
//	skipped, rollbacks, retries, faults  uint64
//	params   uint32 length + nn.SaveParams blob (its own NNCKPv1 CRC)
//	adamStep uint32
//	nParams  uint32
//	per parameter (model order): m then v, float64 x numel
//	nStates  uint32
//	per state vector (nn.VisitLayers order): len uint32, float32 x len
//	crc32    uint32 over everything before it
//
// The blob carries everything a bit-identical resume needs: the
// parameter values, the full Adam state, the RNG seed (batch order is
// derived per epoch from it, so no generator state is live between
// epochs), the non-parameter layer state (BatchNorm running statistics
// and quantization observers — see nn.Stateful), and the trajectory
// recorded so far.
const trainCkptMagic = "TRCKPv1\n"

// CheckpointState is everything SaveCheckpoint persists beyond the
// model parameters themselves.
type CheckpointState struct {
	// Epoch is the number of completed epochs.
	Epoch int
	// Seed is the run's shuffling seed; a resume under a different
	// seed is refused (it could not be equivalent to a straight run).
	Seed int64
	// Adam is the optimizer state after Epoch epochs.
	Adam optim.AdamState
	// Result is the trajectory recorded so far.
	Result Result
}

// SaveCheckpoint atomically writes a training checkpoint: the blob is
// assembled in memory and written by writeFileAtomic, so a crash
// mid-write never corrupts an existing checkpoint.
func SaveCheckpoint(path string, model nn.Layer, st CheckpointState) error {
	params := model.Params()
	if len(st.Adam.M) != len(params) {
		return fmt.Errorf("train: Adam state has %d parameters, model has %d", len(st.Adam.M), len(params))
	}
	n := len(st.Result.TrainLoss)
	if len(st.Result.TestTop1) != n || len(st.Result.TestTop5) != n {
		return fmt.Errorf("train: ragged result trajectory (%d/%d/%d epochs)",
			n, len(st.Result.TestTop1), len(st.Result.TestTop5))
	}
	var pbuf bytes.Buffer
	if err := nn.SaveParams(&pbuf, model); err != nil {
		return err
	}
	var e wire.Enc
	e.U64(uint64(st.Seed))
	e.U32(uint32(st.Epoch))
	e.U32(uint32(n))
	e.RawF64s(st.Result.TrainLoss)
	e.RawF64s(st.Result.TestTop1)
	e.RawF64s(st.Result.TestTop5)
	e.F64(st.Result.Seconds)
	e.U64(uint64(st.Result.SkippedSteps))
	e.U64(uint64(st.Result.Rollbacks))
	e.U64(uint64(st.Result.Retries))
	e.U64(uint64(st.Result.InjectedFaults))
	e.Bytes(pbuf.Bytes())
	e.U32(uint32(st.Adam.Step))
	e.U32(uint32(len(params)))
	for i, p := range params {
		if len(st.Adam.M[i]) != p.Value.Numel() || len(st.Adam.V[i]) != p.Value.Numel() {
			return fmt.Errorf("train: Adam moments for %q do not match parameter size", p.Name)
		}
		e.RawF64s(st.Adam.M[i])
		e.RawF64s(st.Adam.V[i])
	}
	states := nn.CollectState(model)
	e.U32(uint32(len(states)))
	for _, s := range states {
		e.F32s(s)
	}
	return writeFileAtomic(path, wire.Seal(trainCkptMagic, e.B))
}

// writeFileAtomic writes data to a temp file in path's directory and
// renames it into place, so a reader never sees a half-written file.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("train: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into
// a model with an identical parameter layout, returning the training
// state needed to continue the run. The file's CRC and every length
// field are validated before any model state is touched, and a file
// rejected after that leaves the model as it found it.
func LoadCheckpoint(path string, model nn.Layer) (CheckpointState, error) {
	var st CheckpointState
	raw, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	body, err := wire.Open(raw, trainCkptMagic)
	if err != nil {
		return st, fmt.Errorf("train: %w", err)
	}
	d := wire.Dec{B: body}
	st.Seed = int64(d.U64())
	st.Epoch = int(d.U32())
	n := int(d.U32())
	const maxEpochs = 1 << 20
	if n > maxEpochs {
		return st, fmt.Errorf("train: implausible trajectory length %d", n)
	}
	st.Result.TrainLoss = d.RawF64s(n)
	st.Result.TestTop1 = d.RawF64s(n)
	st.Result.TestTop5 = d.RawF64s(n)
	st.Result.Seconds = d.F64()
	st.Result.SkippedSteps = int(d.U64())
	st.Result.Rollbacks = int(d.U64())
	st.Result.Retries = int(d.U64())
	st.Result.InjectedFaults = int(d.U64())
	pblob := d.Bytes()
	params := model.Params()
	st.Adam = optim.AdamState{Step: int(d.U32()), M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	if np := int(d.U32()); !d.Failed() && np != len(params) {
		return st, fmt.Errorf("train: checkpoint has %d parameters, model has %d", np, len(params))
	}
	for i, p := range params {
		st.Adam.M[i] = d.RawF64s(p.Value.Numel())
		st.Adam.V[i] = d.RawF64s(p.Value.Numel())
	}
	ns := int(d.U32())
	const maxStates = 1 << 20
	if ns > maxStates {
		return st, fmt.Errorf("train: implausible state count %d", ns)
	}
	var states [][]float32
	for i := 0; i < ns && !d.Failed(); i++ {
		states = append(states, d.F32s())
	}
	if err := d.Err(); err != nil {
		return st, fmt.Errorf("train: TRCKPv1 body: %w", err)
	}
	// All lengths validated; now mutate the model. Only the layers know
	// their state lengths, so the state goes first and is put back if a
	// layer refuses its vector; LoadParams validates the whole blob before
	// it writes a value, so nothing is left to undo after it.
	old := nn.CollectState(model)
	if err := nn.RestoreState(model, states); err != nil {
		_ = nn.RestoreState(model, old) // the model's own vectors: cannot fail
		return st, err
	}
	if err := nn.LoadParams(bytes.NewReader(pblob), model); err != nil {
		_ = nn.RestoreState(model, old)
		return st, err
	}
	return st, nil
}
