package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestSealOpen walks Open's checks in order — length, magic, CRC-32 —
// over records Seal wrote, and requires the words each rejection names.
func TestSealOpen(t *testing.T) {
	const magic = "TESTRv1\n"
	good := Seal(magic, []byte("body bytes"))
	flipped := bytes.Clone(good)
	flipped[len(magic)+2] ^= 0x01
	for _, c := range []struct {
		name, wantErr string
		raw           []byte
	}{
		{"empty", "too short", nil},
		{"short", "too short", good[:len(magic)+3]},
		{"wrong magic", "magic", Seal("OTHERv1\n", []byte("body bytes"))},
		{"flipped body byte", "checksum", flipped},
		{"flipped checksum byte", "checksum", append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^0x80)},
		{"empty body", "", Seal(magic, nil)},
		{"good", "", good},
	} {
		body, err := Open(c.raw, magic)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr == "" && !bytes.Equal(body, c.raw[len(magic):len(c.raw)-4]):
			t.Errorf("%s: body %q", c.name, body)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
	if body, _ := Open(good, magic); string(body) != "body bytes" {
		t.Errorf("good record opened to %q", body)
	}
}
