package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// DecodePredictRequest reads a /v1/predict body from r into req, which
// it overwrites (a field the body does not set is zero). It is
// json.NewDecoder(r).Decode(req) on a zeroed req — the same request,
// the same error strings — at number-parse speed for the body every
// client in this repository sends, with one deliberate departure: it
// reads at most maxBody bytes (8 MiB), and a longer body is not
// decoded but refused with ErrBodyTooLarge, whatever it holds.
//
// The body is read into a pooled buffer and tried on a fast path that
// accepts one JSON object, JSON whitespace between tokens, and only
// whitespace after it, whose keys are spelled exactly "model", "image"
// and "timeout_ms", each at most once: "model" a string of printable
// ASCII without a backslash, "image" an array of JSON number tokens,
// and "timeout_ms" an integer token strconv.ParseInt accepts. Each
// image number is scanned once into ±m×10^e (m its first 19
// significant digits). When m < 2^53 and |e| ≤ 22, m and 10^e are exact
// float64s and one multiply or divide rounds their product correctly;
// rounding that to float32 gives the float32 nearest the token — the
// bits strconv.ParseFloat(tok, 32), and so encoding/json, returns —
// unless the float64 landed exactly on a midpoint between two float32s,
// which is checked. Every other token, midpoints included, goes to
// strconv.ParseFloat(tok, 32) itself. Anything else (another or a
// differently cased key, a duplicate, an escape, non-ASCII, null, a
// number out of range, a fractional or exponent timeout_ms, trailing
// bytes) falls back to encoding/json on the same bytes, which ignores
// trailing data just as it does on the stream.
func DecodePredictRequest(r io.Reader, req *PredictRequest) error {
	_, err := decodePredictRequest(r, req)
	return err
}

// maxBody caps the bytes DecodePredictRequest reads from one body,
// about a thousand times the 768-value request the benchmark sends.
const maxBody = 8 << 20

// ErrBodyTooLarge is DecodePredictRequest's error for a body longer
// than maxBody; serve and the fleet router answer it with 413.
var ErrBodyTooLarge = errors.New("serve: request body exceeds 8 MiB")

// DecodeStatus is the HTTP status for a DecodePredictRequest error:
// 413 for ErrBodyTooLarge, 400 for any other.
func DecodeStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxPooledBody caps the buffers returned to the pool: one oversized
// request must not pin its memory for the process's lifetime.
const maxPooledBody = 1 << 20

// decodeBuf is a pooled request body, the limiter its reads go
// through, and the scratch the fast path parses image values into
// before copying them out at their length.
type decodeBuf struct {
	body  bytes.Buffer
	lim   io.LimitedReader
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
	db.lim = io.LimitedReader{R: r, N: maxBody + 1}
	_, readErr := db.body.ReadFrom(&db.lim)
	db.lim.R = nil
	if db.body.Len() > maxBody {
		*req = PredictRequest{}
		return false, ErrBodyTooLarge
	}
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
			_, _, _, end := scanNumber(b, i)
			if haveTimeout || end < 0 || bytes.ContainsAny(b[i:end], ".eE") {
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
			f, end, err := parseFloat32(b, i)
			if end < 0 || err != nil {
				return i, false
			}
			img = append(img, f)
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

// parseFloat32 converts the JSON number token at b[i] as
// strconv.ParseFloat(tok, 32) does — the same bits, the same error —
// and returns the index after it (-1, with a nil error, if no number
// token starts at b[i]).
func parseFloat32(b []byte, i int) (float32, int, error) {
	m, e, neg, end := scanNumber(b, i)
	if end < 0 {
		return 0, -1, nil
	}
	if f, ok := exact32(m, e, neg); ok {
		return f, end, nil
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 32)
	return float32(f), end, err
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact32 returns ±m×10^e as a float32 and true when the exact path
// gives strconv.ParseFloat's bits: m is zero, or m < 2^53 and
// |e| ≤ 22, so m and 10^e are exact float64s and one multiply or
// divide rounds m×10^e correctly to v. Every float32 and every
// midpoint between two adjacent float32s is a float64, so a correctly
// rounded v lies on the same side of each midpoint as m×10^e, or on
// it; off a midpoint, float32(v) is therefore the float32 nearest
// m×10^e. On one — the low 29 of v's 52 fraction bits equal 1<<28 —
// exact32 returns false. The bounds keep v in [1e-22, 2^53·1e22],
// inside float32's normal range, where those 29 bits are what
// float32(v) rounds away.
func exact32(m uint64, e int, neg bool) (float32, bool) {
	v := 0.0
	if m != 0 {
		if m >= 1<<53 || e < -22 || e > 22 {
			return 0, false
		}
		v = float64(int64(m))
		if e >= 0 {
			v *= pow10[e]
		} else {
			v /= pow10[-e]
		}
		if math.Float64bits(v)&(1<<29-1) == 1<<28 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return float32(v), true
}

// scanNumber matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at b[i], returning
// the index after it (-1 if there is none) and its value as ±m×10^e,
// m holding the first 19 significant digits. Digits past those are not
// counted in e: they leave m ≥ 10^18, which exact32 refuses anyway.
// An exponent's digits stop accumulating past 10000, as strconv's do.
func scanNumber(b []byte, i int) (m uint64, e int, neg bool, end int) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	nd := 0 // significant digits in m
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				m = m*10 + uint64(b[i]-'0')
				nd++
			}
		}
	default:
		return 0, 0, false, -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				// Leading zeros keep m at 0 and only move e.
				m = m*10 + uint64(b[i]-'0')
				e--
				if m != 0 {
					nd++
				}
			}
		}
		if i == j {
			return 0, 0, false, -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j, x := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 10000 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false, -1
		}
		if eneg {
			x = -x
		}
		e += x
	}
	return m, e, neg, i
}
