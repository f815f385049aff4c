package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// DecodePredictRequest reads a /v1/predict body from r into req, which
// it overwrites (a field the body does not set is zero). It is
// json.NewDecoder(r).Decode(req) on a zeroed req — the same request,
// the same error strings — at number-parse speed for the body every
// client in this repository sends.
//
// The body is read into a pooled buffer and tried on a fast path that
// accepts one JSON object, JSON whitespace between tokens, and only
// whitespace after it, whose keys are spelled exactly "model", "image"
// and "timeout_ms", each at most once: "model" a string of printable
// ASCII without a backslash, "image" an array of JSON number tokens,
// each converted by strconv.ParseFloat(tok, 32) — the call
// encoding/json makes for a float32 field, so the bits are the same —
// and "timeout_ms" an integer token strconv.ParseInt accepts. Anything
// else (another or a differently cased key, a duplicate, an escape,
// non-ASCII, null, a number out of range, a fractional or exponent
// timeout_ms, trailing bytes) falls back to encoding/json on the same
// bytes, which ignores trailing data just as it does on the stream.
func DecodePredictRequest(r io.Reader, req *PredictRequest) error {
	_, err := decodePredictRequest(r, req)
	return err
}

// maxPooledBody caps the buffers returned to the pool: one oversized
// request must not pin its memory for the process's lifetime.
const maxPooledBody = 1 << 20

// decodeBuf is a pooled request body plus the scratch the fast path
// parses image values into before copying them out at their length.
type decodeBuf struct {
	body  bytes.Buffer
	image []float32
}

var decodeBufs = sync.Pool{New: func() any { return new(decodeBuf) }}

// decodePredictRequest is DecodePredictRequest reporting whether the
// fast path decoded the body (tests assert it does for the bodies the
// repository's clients send).
func decodePredictRequest(r io.Reader, req *PredictRequest) (fast bool, err error) {
	db := decodeBufs.Get().(*decodeBuf)
	defer func() {
		if db.body.Cap() <= maxPooledBody && 4*cap(db.image) <= maxPooledBody {
			decodeBufs.Put(db)
		}
	}()
	db.body.Reset()
	_, readErr := db.body.ReadFrom(r)
	body := db.body.Bytes()
	if readErr == nil && db.decodeFast(body, req) {
		return true, nil
	}
	*req = PredictRequest{}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		// What a streaming decoder would have seen: the bytes, then the error.
		src = io.MultiReader(src, errReader{readErr})
	}
	return false, json.NewDecoder(src).Decode(req)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFast decodes b into req if b has the fast path's shape and
// reports whether it did; on false req holds a partial decode.
func (db *decodeBuf) decodeFast(b []byte, req *PredictRequest) bool {
	*req = PredictRequest{}
	i := skipWS(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipWS(b, i+1) == len(b)
	}
	var haveModel, haveImage, haveTimeout bool
	for {
		key, j, ok := asciiString(b, i)
		if !ok {
			return false
		}
		i = skipWS(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipWS(b, i+1)
		switch string(key) {
		case "model":
			s, end, ok := asciiString(b, i)
			if haveModel || !ok {
				return false
			}
			req.Model, haveModel, i = string(s), true, end
		case "image":
			end, ok := db.parseImage(b, i, req)
			if haveImage || !ok {
				return false
			}
			haveImage, i = true, end
		case "timeout_ms":
			end, isInt := scanNumber(b, i)
			if haveTimeout || end < 0 || !isInt {
				return false
			}
			n, err := strconv.ParseInt(string(b[i:end]), 10, 64)
			if err != nil || int64(int(n)) != n {
				return false
			}
			req.TimeoutMS, haveTimeout, i = int(n), true, end
		default:
			return false
		}
		i = skipWS(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			return skipWS(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// parseImage parses the number array starting at b[i] into req.Image,
// returning the index after its closing bracket.
func (db *decodeBuf) parseImage(b []byte, i int, req *PredictRequest) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	img := db.image[:0]
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			end, _ := scanNumber(b, i)
			if end < 0 {
				return i, false
			}
			f, err := strconv.ParseFloat(string(b[i:end]), 32)
			if err != nil {
				return i, false
			}
			img = append(img, float32(f))
			i = skipWS(b, end)
			if i == len(b) {
				return i, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return i, false
			}
			i = skipWS(b, i+1)
		}
	}
	db.image = img
	// encoding/json decodes [] to an empty, non-nil slice; so does this.
	req.Image = make([]float32, len(img))
	copy(req.Image, img)
	return i, true
}

// skipWS returns the index of the first non-whitespace byte at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// asciiString matches a JSON string at b[i] whose bytes are printable
// ASCII other than a backslash, returning its contents and the index
// after the closing quote.
func asciiString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanNumber matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at b[i], returning the
// index after it (-1 if there is none) and whether it is an integer
// (no fraction, no exponent).
func scanNumber(b []byte, i int) (end int, isInt bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1, false
		}
		i, isInt = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1, false
		}
		i, isInt = j, false
	}
	return i, isInt
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
