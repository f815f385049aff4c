package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
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
func TestDecodeClientBodiesTakeFastPath(t *testing.T) {
	for _, body := range clientBodies() {
		if !checkSameAsJSON(t, body) {
			t.Errorf("client body fell back to encoding/json: %.120q", body)
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
