package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

// Training checkpoint format (little endian):
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
var trainCkptMagic = [8]byte{'T', 'R', 'C', 'K', 'P', 'v', '1', '\n'}

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
// assembled in memory, written to a temp file in the checkpoint's
// directory, and renamed into place, so a crash mid-write never
// corrupts an existing checkpoint.
func SaveCheckpoint(path string, model nn.Layer, st CheckpointState) error {
	params := model.Params()
	if len(st.Adam.M) != len(params) {
		return fmt.Errorf("train: Adam state has %d parameters, model has %d", len(st.Adam.M), len(params))
	}
	var buf bytes.Buffer
	buf.Write(trainCkptMagic[:])
	put64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	putf := func(v float64) { put64(math.Float64bits(v)) }
	put64(uint64(st.Seed))
	put32(uint32(st.Epoch))
	n := len(st.Result.TrainLoss)
	if len(st.Result.TestTop1) != n || len(st.Result.TestTop5) != n {
		return fmt.Errorf("train: ragged result trajectory (%d/%d/%d epochs)",
			n, len(st.Result.TestTop1), len(st.Result.TestTop5))
	}
	put32(uint32(n))
	for _, s := range [][]float64{st.Result.TrainLoss, st.Result.TestTop1, st.Result.TestTop5} {
		for _, v := range s {
			putf(v)
		}
	}
	putf(st.Result.Seconds)
	put64(uint64(st.Result.SkippedSteps))
	put64(uint64(st.Result.Rollbacks))
	put64(uint64(st.Result.Retries))
	put64(uint64(st.Result.InjectedFaults))

	var pbuf bytes.Buffer
	if err := nn.SaveParams(&pbuf, model); err != nil {
		return err
	}
	put32(uint32(pbuf.Len()))
	buf.Write(pbuf.Bytes())

	put32(uint32(st.Adam.Step))
	put32(uint32(len(params)))
	for i, p := range params {
		if len(st.Adam.M[i]) != p.Value.Numel() || len(st.Adam.V[i]) != p.Value.Numel() {
			return fmt.Errorf("train: Adam moments for %q do not match parameter size", p.Name)
		}
		for _, v := range st.Adam.M[i] {
			putf(v)
		}
		for _, v := range st.Adam.V[i] {
			putf(v)
		}
	}
	states := nn.CollectState(model)
	put32(uint32(len(states)))
	for _, s := range states {
		put32(uint32(len(s)))
		for _, v := range s {
			put32(math.Float32bits(v))
		}
	}
	put32(crc32.ChecksumIEEE(buf.Bytes()))

	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("train: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("train: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("train: %w", err)
	}
	return nil
}

// ckptReader tracks a cursor over the checkpoint body with bounds
// checking, so truncated files fail with a clear error instead of a
// slice panic.
type ckptReader struct {
	body []byte
	err  error
}

func (r *ckptReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.body) < n {
		r.err = fmt.Errorf("train: checkpoint truncated at %s", what)
		return nil
	}
	b := r.body[:n]
	r.body = r.body[n:]
	return b
}

func (r *ckptReader) u32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64(what string) uint64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) f64(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

func (r *ckptReader) f64s(n int, what string) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64(what)
		if r.err != nil {
			return nil
		}
	}
	return out
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
	if len(raw) < len(trainCkptMagic)+4 {
		return st, fmt.Errorf("train: checkpoint too short (%d bytes)", len(raw))
	}
	if !bytes.Equal(raw[:8], trainCkptMagic[:]) {
		return st, fmt.Errorf("train: bad checkpoint magic %q", raw[:8])
	}
	payload, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return st, fmt.Errorf("train: checkpoint checksum mismatch")
	}
	r := &ckptReader{body: payload[8:]}
	st.Seed = int64(r.u64("seed"))
	st.Epoch = int(r.u32("epoch"))
	n := int(r.u32("trajectory length"))
	const maxEpochs = 1 << 20
	if n > maxEpochs {
		return st, fmt.Errorf("train: implausible trajectory length %d", n)
	}
	st.Result.TrainLoss = r.f64s(n, "train loss")
	st.Result.TestTop1 = r.f64s(n, "top-1")
	st.Result.TestTop5 = r.f64s(n, "top-5")
	st.Result.Seconds = r.f64("seconds")
	st.Result.SkippedSteps = int(r.u64("skipped steps"))
	st.Result.Rollbacks = int(r.u64("rollbacks"))
	st.Result.Retries = int(r.u64("retries"))
	st.Result.InjectedFaults = int(r.u64("injected faults"))

	plen := int(r.u32("params length"))
	pblob := r.take(plen, "params blob")
	if r.err != nil {
		return st, r.err
	}
	params := model.Params()
	adamStep := int(r.u32("adam step"))
	np := int(r.u32("parameter count"))
	if np != len(params) {
		return st, fmt.Errorf("train: checkpoint has %d parameters, model has %d", np, len(params))
	}
	st.Adam = optim.AdamState{Step: adamStep, M: make([][]float64, np), V: make([][]float64, np)}
	for i, p := range params {
		st.Adam.M[i] = r.f64s(p.Value.Numel(), fmt.Sprintf("moments of %q", p.Name))
		st.Adam.V[i] = r.f64s(p.Value.Numel(), fmt.Sprintf("moments of %q", p.Name))
	}
	ns := int(r.u32("state count"))
	const maxStates = 1 << 20
	if ns > maxStates {
		return st, fmt.Errorf("train: implausible state count %d", ns)
	}
	states := make([][]float32, 0, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		sl := int(r.u32("state length"))
		b := r.take(4*sl, fmt.Sprintf("state vector %d", i))
		if r.err != nil {
			break
		}
		v := make([]float32, sl)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*j:]))
		}
		states = append(states, v)
	}
	if r.err != nil {
		return st, r.err
	}
	if len(r.body) != 0 {
		return st, fmt.Errorf("train: %d trailing bytes in checkpoint", len(r.body))
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
