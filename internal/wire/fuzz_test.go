package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/appmult/retrain/internal/wiretest"
)

// FuzzRecv feeds arbitrary bytes to Conn.Recv under both codecs. Recv
// must never panic, never allocate more than the header declared (and
// the cap allows), and every frame it accepts must re-encode to exactly
// the bytes it consumed.
func FuzzRecv(f *testing.F) {
	for _, b := range wiretest.Golden(f) {
		f.Add(b)
	}
	for _, cd := range codecs {
		good := cd.p.Frame(nil, 0, typeData, []byte("payload-bytes"))
		two := append(append([]byte(nil), good...), cd.p.Frame(nil, 1, typeData, nil)...)
		f.Add(two)
		for _, cut := range []int{0, 7, 8, 16, 17, HeaderLen, HeaderLen + 4, len(good) - 1} {
			f.Add(good[:cut]) // the truncation table
		}
		for _, off := range []int{2, 9, 16, 18, HeaderLen + 3, len(good) - 1} {
			b := append([]byte(nil), good...)
			b[off] ^= 0x40
			f.Add(b) // the corruption table
		}
		over := append([]byte(nil), good[:HeaderLen]...)
		binary.LittleEndian.PutUint32(over[17:], cd.p.MaxPayload+1)
		f.Add(over)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cd := range codecs {
			fc := reader(cd.p, data)
			consumed, bound := 0, 0
			for seq := uint64(0); ; seq++ {
				rest := data[consumed:]
				declared := 0
				if len(rest) >= HeaderLen {
					declared = int(binary.LittleEndian.Uint32(rest[17:]))
				}
				// A header that passes validation makes Recv allocate what
				// it declares before the body is read. That is the
				// contract (bounded by the cap), but a fuzzer that finds
				// "declare 1 GiB" would spend its whole budget in the
				// allocator, so large in-cap declarations stop here; the
				// over-cap ones go through and must allocate nothing.
				if declared > 1<<20 && declared <= int(cd.p.MaxPayload) {
					break
				}
				if declared <= 1<<20 {
					bound = max(bound, declared)
				}
				ft, p, err := fc.Recv()
				if cap(fc.rbuf) > bound+4 {
					t.Fatalf("%s: read buffer grew to %d bytes; the largest in-cap payload declared so far is %d", cd.name, cap(fc.rbuf), bound)
				}
				if err != nil {
					break
				}
				frame := cd.p.Frame(nil, seq, ft, p)
				if !bytes.HasPrefix(rest, frame) {
					t.Fatalf("%s: accepted frame re-encodes to\n%x\nbut the stream held\n%x", cd.name, frame, rest)
				}
				consumed += len(frame)
			}
		}
	})
}

// FuzzDec drives every Dec accessor over arbitrary payloads, in an
// order the input itself chooses. No accessor may panic or slice out of
// range, a failure must be sticky, and nothing may be returned from
// beyond the payload. An op byte picks the accessor (op % 15); for
// F32sInto and the Raw accessors, op / 15 is the length asked for.
func FuzzDec(f *testing.F) {
	var e Enc
	e.U8(7)
	e.F32s([]float32{1, 2, 3})
	e.Str("spec")
	e.F64s([]float64{4})
	e.Bytes([]byte{9, 8})
	e.U16(300)
	e.RawF32s([]float32{5, 6})
	f.Add([]byte{0, 5, 7, 6, 8, 10, 2*15 + 13}, e.B)
	f.Add([]byte{5, 5, 5}, []byte{0xff, 0xff, 0xff, 0xff})         // oversized counts
	f.Add([]byte{7, 1, 2}, []byte{3, 0, 0, 0, 'a', 'b'})           // truncated string
	f.Add([]byte{0, 0, 0}, []byte{1, 2})                           // runs dry, then trailing check
	f.Add([]byte{15 + 9, 3, 4}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}) // F32sInto length mismatch
	f.Add([]byte{10, 3*15 + 11, 15 + 12, 14}, []byte{1, 0, 'a', 'b', 'c', 1, 0, 0, 0})
	f.Add([]byte{16*15 + 14}, make([]byte, 8*15)) // a Raw length past the payload
	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		d := Dec{B: payload}
		for _, op := range ops {
			failedBefore, offBefore := d.Failed(), d.off
			n := int(op) / 15
			got := 0    // bytes the accessor claims to have decoded
			prefix := 0 // bytes of a count prefix inside got
			bulk := op%15 >= 5 && op%15 != 9 && op%15 != 10
			switch op % 15 {
			case 0:
				d.U8()
				got = 1
			case 1:
				d.U32()
				got = 4
			case 2:
				d.U64()
				got = 8
			case 3:
				d.F32()
				got = 4
			case 4:
				d.F64()
				got = 8
			case 5:
				got, prefix = 4+4*len(d.F32s()), 4
			case 6:
				got, prefix = 4+8*len(d.F64s()), 4
			case 7:
				got, prefix = 4+len(d.Str()), 4
			case 8:
				got, prefix = 4+len(d.Bytes()), 4
			case 9:
				dst := make([]float32, n)
				if d.F32sInto(dst) {
					got = 4 + 4*len(dst)
				}
			case 10:
				d.U16()
				got = 2
			case 11:
				got = len(d.Raw(n))
			case 12:
				got = 4 * len(d.RawU32s(n))
			case 13:
				got = 4 * len(d.RawF32s(n))
			case 14:
				got = 8 * len(d.RawF64s(n))
			}
			switch {
			case d.off > len(payload):
				t.Fatalf("op %d: offset %d past the %d-byte payload", op%15, d.off, len(payload))
			case failedBefore && (!d.Failed() || d.off != offBefore):
				t.Fatalf("op %d: failure was not sticky", op%15)
			case d.Failed() && bulk && got != prefix:
				t.Fatalf("op %d: failed yet returned %d bytes of data", op%15, got-prefix)
			case !d.Failed() && d.off-offBefore != got:
				t.Fatalf("op %d: consumed %d bytes but decoded %d", op%15, d.off-offBefore, got)
			}
		}
		if err := d.Err(); (err == nil) != (!d.Failed() && d.off == len(payload)) {
			t.Fatalf("Err() = %v with failed=%v, offset %d of %d", err, d.Failed(), d.off, len(payload))
		}
	})
}
