package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
)

// Seal wraps a record body in the envelope every file format of the
// repo shares (NNCKPv1, TRCKPv1, AMLUTv1, AMGRDv1):
//
//	magic  8 bytes, e.g. "NNCKPv1\n"
//	body   the format's fields, written with Enc
//	crc32  uint32, IEEE, over magic and body
func Seal(magic string, body []byte) []byte {
	rec := make([]byte, 0, len(magic)+len(body)+4)
	rec = append(append(rec, magic...), body...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}

// Open checks a record Seal wrote — its length, magic and CRC-32 — and
// returns the body, aliasing raw. The errors name the format and say
// which check failed ("too short", "magic", "checksum"); callers add
// their package prefix.
func Open(raw []byte, magic string) ([]byte, error) {
	format := strings.TrimSpace(magic)
	if need := len(magic) + 4; len(raw) < need {
		return nil, fmt.Errorf("%s record too short: %d bytes, need at least %d", format, len(raw), need)
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad %s magic %q", format, raw[:len(magic)])
	}
	payload, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%s checksum mismatch (file %08x, computed %08x)", format, sum, got)
	}
	return payload[len(magic):], nil
}
