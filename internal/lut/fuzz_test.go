package lut

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
)

// withCRC returns a copy of rec whose trailing checksum matches the
// bytes before it, so a corrupted header field reaches the decoder.
func withCRC(rec []byte) []byte {
	out := append([]byte(nil), rec...)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	}
	return out
}

// addSeeds seeds a decoder's fuzzer with a valid record, its
// truncation at every byte, and header corruptions with the checksum
// recomputed: each width byte a decoder must refuse (0, 17, 255),
// legal ones whose payload the record does not hold (3, 10, and 16,
// which claims 2^32 entries), and name lengths past the record and past
// the format's limit.
func addSeeds(f *testing.F, rec []byte, nameLen int) {
	f.Add(rec)
	for cut := 0; cut < len(rec); cut++ {
		f.Add(rec[:cut])
	}
	set := func(off int, b ...byte) {
		bad := append([]byte(nil), rec...)
		copy(bad[off:], b)
		f.Add(withCRC(bad))
	}
	bitsOff := 8 + 2 + nameLen
	for _, bits := range []byte{0, 3, 10, 16, 17, 255} {
		set(bitsOff, bits)
	}
	for _, l := range []uint16{uint16(nameLen + 1), maxNameLen + 1, 0xFFFF} {
		set(8, byte(l), byte(l>>8))
	}
}

// checkDecode runs decode on rec and fails if it allocated more than a
// small multiple of the record: reading it whole, the decoded table and
// the name are sized by bytes the caller supplied, never by a header
// field alone.
func checkDecode(t *testing.T, rec []byte, decode func(r *bytes.Reader)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode(bytes.NewReader(rec))
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(rec)+64<<10); got > limit {
		t.Fatalf("decoding a %d-byte record allocated %d bytes (limit %d)", len(rec), got, limit)
	}
}

// FuzzReadProduct: ReadProduct returns an error or a table, never
// panics, allocates only in proportion to its input, and a record it
// accepts is the one WriteProduct writes for what it returned.
func FuzzReadProduct(f *testing.F) {
	m := appmult.NewTruncated(2, 1)
	var buf bytes.Buffer
	if err := WriteProduct(&buf, m.Name(), 2, appmult.BuildLUT(m)); err != nil {
		f.Fatal(err)
	}
	addSeeds(f, buf.Bytes(), len(m.Name()))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, withCRC(data)} {
			var (
				name  string
				bits  int
				table []uint32
				err   error
			)
			checkDecode(t, rec, func(r *bytes.Reader) { name, bits, table, err = ReadProduct(r) })
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := WriteProduct(&out, name, bits, table); err != nil || !bytes.Equal(out.Bytes(), rec) {
				t.Fatalf("accepted record does not re-encode to itself (%v)", err)
			}
		}
	})
}

// FuzzReadTables is FuzzReadProduct for the AMGRDv1 gradient tables.
func FuzzReadTables(f *testing.F) {
	m := appmult.NewTruncated(2, 1)
	var buf bytes.Buffer
	if err := WriteTables(&buf, gradient.Difference(m.Name(), 2, 1, m.Mul)); err != nil {
		f.Fatal(err)
	}
	addSeeds(f, buf.Bytes(), len(m.Name()))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, withCRC(data)} {
			var (
				tab *gradient.Tables
				err error
			)
			checkDecode(t, rec, func(r *bytes.Reader) { tab, err = ReadTables(r) })
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := WriteTables(&out, tab); err != nil || !bytes.Equal(out.Bytes(), rec) {
				t.Fatalf("accepted record does not re-encode to itself (%v)", err)
			}
		}
	})
}
