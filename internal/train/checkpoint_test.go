package train

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

// saveTestCheckpoint writes a valid TRCKPv1 file for a small model and
// returns its bytes. No training run is needed: a zero-moment Adam
// snapshot is a legal optimizer state.
func saveTestCheckpoint(t testing.TB, seed int64) (path string, raw []byte) {
	t.Helper()
	m := robustModel(seed)
	path = filepath.Join(t.TempDir(), "c.ckpt")
	st := CheckpointState{Epoch: 1, Seed: seed, Adam: optim.NewAdam().Snapshot(m.Params())}
	if err := SaveCheckpoint(path, m, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestLoadCheckpointTruncationSweep cuts a valid TRCKPv1 file at every
// prefix length through the header region and at evenly spaced points
// beyond, requiring each cut to be rejected — and rejected cleanly: a
// failed load must not leave the target model partially mutated.
func TestLoadCheckpointTruncationSweep(t *testing.T) {
	_, good := saveTestCheckpoint(t, 3)
	dir := t.TempDir()
	p := filepath.Join(dir, "cut.ckpt")

	cuts := map[int]bool{}
	for cut := 0; cut < len(good) && cut < 256; cut++ {
		cuts[cut] = true
	}
	step := len(good)/512 + 1
	for cut := 0; cut < len(good); cut += step {
		cuts[cut] = true
	}
	cuts[len(good)-1] = true

	fresh := robustModel(5)
	pristine := robustModel(5)
	for cut := range cuts {
		if err := os.WriteFile(p, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p, fresh); err == nil {
			t.Fatalf("checkpoint truncated to %d/%d bytes accepted", cut, len(good))
		}
	}
	paramsEqual(t, pristine, fresh)
}

// TestLoadCheckpointSectionBoundaryTruncation cuts a valid TRCKPv1
// file at exactly every section boundary of the format — the positions
// where one logical field ends and the next begins, which are the cuts
// a naive length check is most likely to let through (every field
// before the cut parses cleanly). Each cut must be rejected: the
// trailing CRC32 covers the whole payload, so a file missing its tail
// can never verify.
func TestLoadCheckpointSectionBoundaryTruncation(t *testing.T) {
	_, good := saveTestCheckpoint(t, 3)
	m := robustModel(3)

	// Walk the TRCKPv1 layout (see the format comment in checkpoint.go)
	// and record the offset after every field.
	var bounds []int
	off := 0
	add := func(n int) { off += n; bounds = append(bounds, off) }
	add(8) // magic
	add(8) // seed
	add(4) // epoch
	nEpochs := int(binary.LittleEndian.Uint32(good[20:]))
	add(4)           // trajectory length
	add(nEpochs * 8) // train loss
	add(nEpochs * 8) // top-1
	add(nEpochs * 8) // top-5
	add(8)           // seconds
	for i := 0; i < 4; i++ {
		add(8) // robustness counters
	}
	plen := int(binary.LittleEndian.Uint32(good[off:]))
	add(4)    // params blob length
	add(plen) // NNCKPv1 params blob
	add(4)    // adam step
	add(4)    // parameter count
	for _, p := range m.Params() {
		add(p.Value.Numel() * 8) // first moments
		add(p.Value.Numel() * 8) // second moments
	}
	state := nn.CollectState(m)
	add(4) // state count
	for _, vec := range state {
		add(4)            // state length
		add(len(vec) * 4) // state values
	}
	add(4) // crc32
	if off != len(good) {
		t.Fatalf("layout walk ends at %d, file is %d bytes — format drifted, update this test", off, len(good))
	}

	dir := t.TempDir()
	p := filepath.Join(dir, "boundary.ckpt")
	fresh := robustModel(5)
	pristine := robustModel(5)
	for _, cut := range bounds[:len(bounds)-1] {
		if err := os.WriteFile(p, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p, fresh); err == nil {
			t.Fatalf("checkpoint truncated at section boundary %d/%d accepted", cut, len(good))
		}
	}
	paramsEqual(t, pristine, fresh)
}

// TestLoadCheckpointWrongMagic flips each magic byte individually and
// also feeds a valid params-only NNCKPv1 file to the train-level
// loader: every wrong-magic variant must be refused.
func TestLoadCheckpointWrongMagic(t *testing.T) {
	_, good := saveTestCheckpoint(t, 3)
	dir := t.TempDir()
	p := filepath.Join(dir, "magic.ckpt")

	for i := 0; i < 8; i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x20
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p, robustModel(1)); err == nil {
			t.Errorf("magic byte %d corrupted but checkpoint accepted", i)
		}
	}

	// A params-only nn checkpoint is a different format (NNCKPv1); the
	// train loader must reject it at the magic, not misparse it.
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, robustModel(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(p, robustModel(1)); err == nil {
		t.Error("NNCKPv1 params file accepted as a TRCKPv1 train checkpoint")
	}
}

// withCRC returns a copy of the TRCKPv1 file b with its trailing CRC32
// recomputed over the rest, so a corruption reaches the fields behind
// the checksum.
func withCRC(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) >= 12 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	}
	return out
}

// modelSnapshot is what a rejected load must leave alone: every
// parameter value's bits and version, and every layer state vector.
type modelSnapshot struct {
	bits     []uint32
	versions []uint64
	state    [][]float32
}

func snapshotModel(m nn.Layer) modelSnapshot {
	var s modelSnapshot
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			s.bits = append(s.bits, math.Float32bits(v))
		}
		s.versions = append(s.versions, p.Version())
	}
	s.state = nn.CollectState(m)
	return s
}

func (s modelSnapshot) equal(o modelSnapshot) bool {
	if !slices.Equal(s.bits, o.bits) || !slices.Equal(s.versions, o.versions) || len(s.state) != len(o.state) {
		return false
	}
	for i := range s.state {
		if !slices.EqualFunc(s.state[i], o.state[i], func(a, b float32) bool {
			return math.Float32bits(a) == math.Float32bits(b)
		}) {
			return false
		}
	}
	return true
}

// FuzzLoadCheckpoint mutates TRCKPv1 files, starting from a valid
// checkpoint, its truncations, its magic flips, a params-only NNCKPv1
// file and a checksummed file whose last state vector has the wrong
// length. LoadCheckpoint — what serve.Load and -resume read — never
// panics, and a file it rejects changes no parameter value or version
// and no layer state. Every input is also tried with its trailing CRC
// recomputed, so mutations reach the fields behind the checksum.
func FuzzLoadCheckpoint(f *testing.F) {
	_, good := saveTestCheckpoint(f, 3)
	f.Add(good)
	for cut := 0; cut < len(good); cut += len(good)/32 + 1 {
		f.Add(good[:cut])
	}
	for i := 0; i < 8; i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x20
		f.Add(bad)
	}
	var params bytes.Buffer
	if err := nn.SaveParams(&params, robustModel(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(params.Bytes())
	// The last state vector (an observer's three values) grown by one:
	// every length field agrees, the model refuses the vector.
	end := len(good) - 4
	long := append(append([]byte(nil), good[:end]...), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(long[end-16:], 4)
	f.Add(withCRC(long))

	path := filepath.Join(f.TempDir(), "f.ckpt")
	dst := robustModel(5)
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, b := range [][]byte{blob, withCRC(blob)} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			before := snapshotModel(dst)
			if _, err := LoadCheckpoint(path, dst); err != nil && !before.equal(snapshotModel(dst)) {
				t.Fatalf("rejected load (%v) changed the model", err)
			}
		}
	})
}

// TestLoadCheckpointRoundTripBitExact complements the corruption tests:
// the exact bytes written by SaveCheckpoint restore an identically
// shaped model to parameter equality.
func TestLoadCheckpointRoundTripBitExact(t *testing.T) {
	path, _ := saveTestCheckpoint(t, 3)
	src := robustModel(3)
	dst := robustModel(9)
	st, err := LoadCheckpoint(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Seed != 3 {
		t.Errorf("state = epoch %d seed %d, want 1/3", st.Epoch, st.Seed)
	}
	paramsEqual(t, src, dst)
}
