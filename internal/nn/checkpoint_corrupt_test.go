package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// recrc recomputes and rewrites the trailing checksum so a deliberate
// corruption survives the CRC gate and exercises the structural checks.
func recrc(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

func paramsBits(model Layer) [][]uint32 {
	var out [][]uint32
	for _, p := range model.Params() {
		row := make([]uint32, len(p.Value.Data))
		for i, v := range p.Value.Data {
			row[i] = math.Float32bits(v)
		}
		out = append(out, row)
	}
	return out
}

func sameBits(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// corruptCkpt is one systematically damaged checkpoint and the words its
// rejection must contain.
type corruptCkpt struct {
	name    string
	blob    []byte
	wantErr string
}

// corruptCheckpoints damages the valid checkpoint blob every way the
// format can be: corrupted headers, bad CRC, short reads, truncations,
// implausible counts and sizes. The table test walks it; the fuzz target
// starts from it.
func corruptCheckpoints(valid []byte) []corruptCkpt {
	// Field offsets in the blob: magic(8) count(4), then per parameter
	// nameLen(2) name numel(4) data.
	countOff := 8
	firstNumelOff := countOff + 4 + 2 + int(binary.LittleEndian.Uint16(valid[countOff+4:]))
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), valid...))
	}
	return []corruptCkpt{
		{"empty", nil, "too short"},
		{"short read", valid[:10], "too short"},
		{"header only", valid[:16], "checksum"},
		{"bad magic", mutate(func(b []byte) []byte {
			copy(b, "XXCKPv1\n")
			return b
		}), "magic"},
		{"bad crc", mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}), "checksum"},
		{"flipped payload bit", mutate(func(b []byte) []byte {
			b[len(b)/2] ^= 0x01
			return b
		}), "checksum"},
		{"oversized count", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], binary.LittleEndian.Uint32(b[countOff:])+1)
			return recrc(b)
		}), "parameters"},
		{"implausible count", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], 0xFFFFFFFF)
			return recrc(b)
		}), "implausible"},
		{"oversized numel", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstNumelOff:], binary.LittleEndian.Uint32(b[firstNumelOff:])+7)
			return recrc(b)
		}), "values"},
		{"truncated tail, valid crc", recrc(append([]byte(nil), valid[:len(valid)-24]...)), "truncated"},
		{"trailing bytes, valid crc", recrc(append(append([]byte(nil), valid...), 0, 0, 0, 0)), "trailing"},
	}
}

// TestLoadParamsCorruptionTable feeds LoadParams the damaged checkpoints
// of corruptCheckpoints and requires each to fail with a descriptive
// error while leaving the destination model untouched.
func TestLoadParamsCorruptionTable(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, ckptModel(1)); err != nil {
		t.Fatal(err)
	}
	cases := corruptCheckpoints(buf.Bytes())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := ckptModel(2)
			before := paramsBits(dst)
			err := LoadParams(bytes.NewReader(tc.blob), dst)
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if !sameBits(before, paramsBits(dst)) {
				t.Error("failed load mutated the model")
			}
		})
	}
}

// TestLoadParamsTruncationFuzz truncates a valid checkpoint at every
// possible length: each prefix must be rejected without panicking, and
// only the full blob may load.
func TestLoadParamsTruncationFuzz(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, ckptModel(1)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n < len(valid); n++ {
		if err := LoadParams(bytes.NewReader(valid[:n]), ckptModel(2)); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(valid))
		}
	}
	if err := LoadParams(bytes.NewReader(valid), ckptModel(2)); err != nil {
		t.Fatalf("full checkpoint rejected: %v", err)
	}
}

// FuzzLoadParams mutates NNCKPv1 blobs starting from the valid
// checkpoint and the corruption table: LoadParams never panics, and an
// input it rejects changes neither a parameter value nor a version.
func FuzzLoadParams(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, ckptModel(1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, c := range corruptCheckpoints(buf.Bytes()) {
		f.Add(c.blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dst := ckptModel(2)
		before := paramsBits(dst)
		err := LoadParams(bytes.NewReader(blob), dst)
		if err == nil {
			return
		}
		if !sameBits(before, paramsBits(dst)) {
			t.Fatalf("rejected load (%v) mutated the model", err)
		}
		for _, p := range dst.Params() {
			if p.Version() != 0 {
				t.Fatalf("rejected load (%v) advanced the version of %s", err, p.Name)
			}
		}
	})
}
