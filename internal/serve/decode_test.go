package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// jsonDecode is the reference DecodePredictRequest must equal:
// encoding/json's stream decoder on a zeroed request.
func jsonDecode(r io.Reader) (PredictRequest, error) {
	var req PredictRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// checkSameAsJSON decodes body both ways and fails unless both return
// the same error string or the same request, images compared by
// Float32bits (and nil-ness). It reports whether the fast path ran.
func checkSameAsJSON(t testing.TB, body []byte) bool {
	t.Helper()
	var got PredictRequest
	fast, err := decodePredictRequest(bytes.NewReader(body), &got)
	want, wantErr := jsonDecode(bytes.NewReader(body))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("body %q: error %v, encoding/json says %v", body, err, wantErr)
	}
	if err != nil {
		return fast
	}
	if got.Model != want.Model || got.TimeoutMS != want.TimeoutMS ||
		(got.Image == nil) != (want.Image == nil) || len(got.Image) != len(want.Image) {
		t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
	}
	for i := range got.Image {
		if math.Float32bits(got.Image[i]) != math.Float32bits(want.Image[i]) {
			t.Fatalf("body %q: image[%d] = %v, encoding/json %v", body, i, got.Image[i], want.Image[i])
		}
	}
	return fast
}

// loadgenRequest and benchRequest are the request types cmd/loadgen and
// bench/httpload.go marshal: same tags as PredictRequest, bench without
// timeout_ms.
type loadgenRequest struct {
	Model     string    `json:"model"`
	Image     []float32 `json:"image"`
	TimeoutMS int       `json:"timeout_ms"`
}

type benchRequest struct {
	Model string    `json:"model"`
	Image []float32 `json:"image"`
}

// clientBodies are json.Marshal bodies of the shapes the repository's
// clients send, over values that stress float32 formatting: -0,
// subnormals, the extremes, exponent notation both ways, and normal
// draws like the benchmark's.
func clientBodies() [][]byte {
	rng := rand.New(rand.NewSource(1))
	draws := make([]float32, 768)
	for i := range draws {
		draws[i] = float32(rng.NormFloat64())
	}
	edges := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1e-7, 1e21, 123456789, 0.1, 1.0 / 3, -2.5e-38, 1 << 24, 16777217}
	var out [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	for _, img := range [][]float32{draws, edges, {}, {1}} {
		add(PredictRequest{Image: img})
		add(PredictRequest{Model: "lenet-test", Image: img, TimeoutMS: 250})
		add(loadgenRequest{Model: "vgg11", Image: img, TimeoutMS: -1})
		add(benchRequest{Model: "bench", Image: img})
	}
	return out
}

// TestDecodeClientBodiesTakeFastPath: the bodies json.Marshal,
// cmd/loadgen and bench/httpload.go produce must decode on the fast
// path — a silent fallback would keep every result and lose the speed,
// and no other test would notice.
//
// Every number in them must also convert on the exact path, not through
// strconv, except the few edges outside its range (|e| ≤ 22), which must
// not: a value that quietly took the fallback would cost speed only.
func TestDecodeClientBodiesTakeFastPath(t *testing.T) {
	fallback := map[string]bool{"3.4028235e+38": true, "-3.4028235e+38": true,
		"1e-45": true, "-1e-45": true, "-2.5e-38": true}
	for _, body := range clientBodies() {
		if !checkSameAsJSON(t, body) {
			t.Errorf("client body fell back to encoding/json: %.120q", body)
		}
		var tokens struct{ Image []json.Number }
		if err := json.Unmarshal(body, &tokens); err != nil {
			t.Fatal(err)
		}
		for _, tok := range tokens.Image {
			m, e, neg, end := scanNumber([]byte(tok), 0)
			if _, exact := exact32(m, e, neg); end != len(tok) || exact == fallback[string(tok)] {
				t.Errorf("client value %s: scanned to %d of %d, exact path %v", tok, end, len(tok), exact)
			}
		}
	}
}

// decodeTable is the hand-written half of the seed corpus: bodies that
// must fall back (with the reason) and a few that must not.
var decodeTable = []struct {
	body string
	fast bool
}{
	{`{"Image":[1]}`, false},                      // case-variant key
	{`{"image":[1],"extra":2}`, false},            // unknown key
	{`{"image":[1],"image":[2,3]}`, false},        // duplicate key
	{`{"model":"a","model":"b"}`, false},          // duplicate key
	{`{"timeout_ms":1,"timeout_ms":2}`, false},    // duplicate key
	{`{"model":"\u0041","image":[1]}`, false},     // escape ("A")
	{`{"model":"lénet","image":[1]}`, false},      // non-ASCII
	{"{\"model\":\"tab\there\"}", false},          // control byte (invalid JSON)
	{`{"model":null,"image":[1]}`, false},         // null
	{`{"image":null}`, false},                     // null (json.Marshal of a nil image)
	{`null`, false},                               // null
	{`{"image":[1e39]}`, false},                   // out of float32 range
	{`{"image":[NaN]}`, false},                    // not a JSON number
	{`{"image":[0x1p3]}`, false},                  // not a JSON number
	{`{"image":[01]}`, false},                     // leading zero
	{`{"image":[1.]}`, false},                     // empty fraction
	{`{"image":[-]}`, false},                      // lone sign
	{`{"image":[+1]}`, false},                     // plus sign
	{`{"image":[1,]}`, false},                     // trailing comma
	{`{"image":["1"]}`, false},                    // string element
	{`{"timeout_ms":1.5}`, false},                 // fractional timeout
	{`{"timeout_ms":1e3}`, false},                 // exponent timeout
	{`{"timeout_ms":9223372036854775808}`, false}, // int64 overflow
	{`{"timeout_ms":"5"}`, false},                 // string timeout
	{`{"image":[1]}}garbage`, false},              // trailing bytes
	{`{"image":[1]} {"image":[2]}`, false},        // a second value
	{``, false},                                   // empty body
	{`   `, false},                                // whitespace only
	{`{"image":[1]`, false},                       // truncated
	{`[1,2]`, false},                              // not an object
	{`{}`, true},
	{" \t\r\n{ \t\r\n\"model\" \t\r\n: \t\r\n\"m\" \t\r\n, \t\r\n\"image\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n-2.5e-3 \t\r\n] \t\r\n, \t\r\n\"timeout_ms\" \t\r\n: \t\r\n-0 \t\r\n} \t\r\n", true}, // whitespace everywhere
	{`{"image":[],"model":"","timeout_ms":0}`, true},
	{`{"image":[1E+2,1e-2,-0.0,0e0]}`, true},
	{`{"timeout_ms":-9223372036854775808}`, true},
}

func TestDecodeTable(t *testing.T) {
	for _, c := range decodeTable {
		if fast := checkSameAsJSON(t, []byte(c.body)); fast != c.fast {
			t.Errorf("body %q: fast path %v, want %v", c.body, fast, c.fast)
		}
	}
}

// TestDecodeReplaysReadError: a body whose read fails mid-stream gets
// the error a streaming encoding/json decoder would have returned —
// the read error if the value was incomplete, success if it was not.
func TestDecodeReplaysReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, prefix := range []string{`{"image":[1,`, `{"model":"a"}`, ``} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), errReader{boom}) }
		var got PredictRequest
		err := DecodePredictRequest(body(), &got)
		want, wantErr := jsonDecode(body())
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || got.Model != want.Model {
			t.Errorf("prefix %q: (%+v, %v), encoding/json (%+v, %v)", prefix, got, err, want, wantErr)
		}
	}
}

// TestDecodeOverwritesRequest: fields absent from the body are zero
// afterwards, on both paths.
func TestDecodeOverwritesRequest(t *testing.T) {
	for _, body := range []string{`{"image":[1]}`, `{"Image":[1]}`} {
		req := PredictRequest{Model: "stale", TimeoutMS: 9}
		if err := DecodePredictRequest(strings.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
		if req.Model != "" || req.TimeoutMS != 0 || len(req.Image) != 1 {
			t.Errorf("body %s: %+v, want only the image set", body, req)
		}
	}
}

// FuzzDecodePredictRequest: for any body, DecodePredictRequest and
// encoding/json return the same request (images by Float32bits) or the
// same error string.
func FuzzDecodePredictRequest(f *testing.F) {
	for _, b := range clientBodies() {
		f.Add(b)
	}
	for _, c := range decodeTable {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameAsJSON(t, body)
	})
}

// BenchmarkDecodePredictRequest decodes the benchmark's request body —
// json.Marshal of 768 NormFloat64 float32s under model "bench" — with
// encoding/json and with DecodePredictRequest.
func BenchmarkDecodePredictRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	img := make([]float32, 3*16*16)
	for i := range img {
		img[i] = float32(rng.NormFloat64())
	}
	body, _ := json.Marshal(benchRequest{Model: "bench", Image: img})
	r := bytes.NewReader(body)
	for _, c := range []struct {
		name   string
		decode func(io.Reader, *PredictRequest) error
	}{
		{"encoding_json", func(r io.Reader, req *PredictRequest) error { return json.NewDecoder(r).Decode(req) }},
		{"DecodePredictRequest", DecodePredictRequest},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			var req PredictRequest
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				req = PredictRequest{}
				if err := c.decode(r, &req); err != nil || len(req.Image) != len(img) {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkParseFloat32 fails unless parseFloat32(b, 0) returns end, and,
// for a token, strconv.ParseFloat(tok, 32)'s bits and error. It reports
// whether exact32 accepted the token's scanned value.
func checkParseFloat32(t testing.TB, b []byte, end int) (exact bool) {
	t.Helper()
	f, gotEnd, err := parseFloat32(b, 0)
	if gotEnd != end {
		t.Fatalf("%q: end %d, want %d", b, gotEnd, end)
	}
	if end < 0 {
		return false
	}
	tok := string(b[:end])
	want, wantErr := strconv.ParseFloat(tok, 32)
	if math.Float32bits(f) != math.Float32bits(float32(want)) ||
		(err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: (%v %#x, %v), strconv (%v %#x, %v)", tok,
			f, math.Float32bits(f), err, want, math.Float32bits(float32(want)), wantErr)
	}
	m, e, neg, _ := scanNumber(b, 0)
	_, exact = exact32(m, e, neg)
	return exact
}

// parseFloat32Edges are number tokens at the exact path's edges, with
// whether exact32 takes them: float32 midpoints it must refuse, zeros,
// subnormals and the normal boundary, the top of the range, mantissas
// at and past 2^53 and 19 digits, and exponents at and past ±22.
var parseFloat32Edges = []struct {
	tok   string
	exact bool
}{
	{"16777217", false}, {"-16777217", false}, {"16777219", false}, {"1.6777217e7", false},
	{"33554434", false}, {"16777216", true}, {"16777218", true}, {"0.5000000298023224", false},
	{"0", true}, {"-0", true}, {"-0.0", true}, {"0." + strings.Repeat("0", 40), true},
	{"0e99999", true}, {"-0E-7", true},
	{"1e-45", false}, {"7e-46", false}, {"1.1754942e-38", false}, {"1.1754944e-38", false},
	{"3.4028235e38", false}, {"3.4028236e38", false}, {"3.5e38", false}, {"-3.5e38", false},
	{"1234567890123456789", false}, {"12345678901234567890", false},
	{"0.1234567890123456789", false}, {"-1.2345678901234567890e-3", false},
	{"9007199254740991", true}, {"9007199254740992", false}, {"9007199254740993", false},
	{"90071992547409930e-1", false},
	{"1e22", true}, {"-1e-22", true}, {"9007199254740991e22", true}, {"9007199254740991e-22", true},
	{"1e23", false}, {"1e-23", false}, {"1e10000", false}, {"-1e-10000", false},
	{"0.1", true}, {"-2.5e-3", true}, {"1E+2", true}, {"123456.7e-2", true}, {"0.000001", true},
}

// parseFloat32Grammar are inputs whose end index parseFloat32 must
// report: the longest JSON number token at the start, or -1.
var parseFloat32Grammar = []struct {
	s   string
	end int
}{
	{"", -1}, {"-", -1}, {"+1", -1}, {".5", -1}, {"1.", -1}, {"1.e3", -1}, {"1e", -1},
	{"1e+", -1}, {"-e1", -1}, {"x", -1}, {" 1", -1},
	{"01", 1}, {"-01", 2}, {"1.5,2", 3}, {"2]", 1}, {"1e5e5", 3}, {"0x10", 1}, {"1 ", 1},
}

func TestParseFloat32Edges(t *testing.T) {
	for _, c := range parseFloat32Edges {
		if exact := checkParseFloat32(t, []byte(c.tok), len(c.tok)); exact != c.exact {
			t.Errorf("%s: exact path %v, want %v", c.tok, exact, c.exact)
		}
	}
	for _, c := range parseFloat32Grammar {
		checkParseFloat32(t, []byte(c.s), c.end)
	}
}

// TestParseFloat32Sweep converts the shortest and the %e form of every
// 512th float32 bit pattern (every 32768th under -short), NaN and ±Inf
// excepted, and compares each with strconv.ParseFloat(tok, 32).
func TestParseFloat32Sweep(t *testing.T) {
	step := uint64(512)
	if testing.Short() {
		step <<= 6
	}
	var buf []byte
	for u := uint64(0); u < 1<<32; u += step {
		v := float64(math.Float32frombits(uint32(u)))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 32)
		checkParseFloat32(t, buf, len(buf))
		buf = strconv.AppendFloat(buf[:0], v, 'e', 6, 32)
		checkParseFloat32(t, buf, len(buf))
	}
}

// FuzzParseFloat32: parseFloat32 stops where the longest JSON number
// token at the start of the input ends — encoding/json must accept
// exactly that prefix as a number, and the whole input when it is one —
// and returns strconv.ParseFloat(tok, 32)'s bits and error for it.
func FuzzParseFloat32(f *testing.F) {
	for _, c := range parseFloat32Edges {
		f.Add(c.tok)
	}
	for _, c := range parseFloat32Grammar {
		f.Add(c.s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		_, end, _ := parseFloat32(b, 0)
		if isNumberToken(b) && end != len(b) {
			t.Fatalf("%q is a JSON number, scanned to %d", s, end)
		}
		if end >= 0 && !isNumberToken(b[:end]) {
			t.Fatalf("%q: scanned prefix %q is not a JSON number", s, b[:end])
		}
		checkParseFloat32(t, b, end)
	})
}

// isNumberToken reports whether encoding/json reads b, without
// surrounding whitespace, as one number.
func isNumberToken(b []byte) bool {
	return json.Valid(b) && (b[0] == '-' || '0' <= b[0] && b[0] <= '9') && '0' <= b[len(b)-1] && b[len(b)-1] <= '9'
}

// countingReader yields n bytes of JSON whitespace, counting those read.
type countingReader struct{ n, read int64 }

func (c *countingReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), c.n))
	for i := range p[:k] {
		p[i] = ' '
	}
	c.n -= int64(k)
	c.read += int64(k)
	return k, nil
}

// TestDecodeBodyCap: a body of maxBody bytes decodes as encoding/json
// decodes it; one byte more is refused with ErrBodyTooLarge, and the
// decoder reads no further than that byte.
func TestDecodeBodyCap(t *testing.T) {
	obj := `{"image":[1]}`
	var req PredictRequest
	r := io.MultiReader(strings.NewReader(obj), &countingReader{n: maxBody - int64(len(obj))})
	if err := DecodePredictRequest(r, &req); err != nil || len(req.Image) != 1 {
		t.Fatalf("body of maxBody bytes: %+v, %v", req, err)
	}
	for _, extra := range []int64{1, 1 << 20} {
		c := &countingReader{n: maxBody + extra}
		req = PredictRequest{Model: "stale"}
		if err := DecodePredictRequest(c, &req); err != ErrBodyTooLarge || req.Model != "" {
			t.Errorf("body of maxBody+%d bytes: %+v, %v, want ErrBodyTooLarge", extra, req, err)
		}
		if c.read > maxBody+1 {
			t.Errorf("body of maxBody+%d bytes: read %d, want at most maxBody+1", extra, c.read)
		}
	}
}
