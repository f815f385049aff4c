package tensor_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// geomRecorder is a model's convolution with the geometry its Forward
// sees recorded. The geometries are the architecture's: a model built
// with ApproxConv2D layers has the same ones.
type geomRecorder struct {
	nn.Layer
	inC, outC, k, stride, pad int
	seen                      func(tensor.ConvGeom)
}

func (r *geomRecorder) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.seen(tensor.Geometry(r.inC, x.Shape[2], x.Shape[3], r.outC, r.k, r.k, r.stride, r.pad))
	return r.Layer.Forward(x, train)
}

// modelConvPaths lists, per scale and model, each distinct convolution
// geometry (input plane, kernel, stride, padding), the im2col/col2im
// path it takes, its live patch-matrix rows out of k (ConvGeom.LiveTaps;
// the others belong to taps that see only padding) and how many layers
// share it. The dense heads are 1x1 convolutions on 1x1 inputs.
const modelConvPaths = `
tiny    lenet     1x1  k1 s1 p0  whole-plane  live 10/10      x1
tiny    lenet     1x1  k1 s1 p0  whole-plane  live 16/16      x1
tiny    lenet     1x1  k1 s1 p0  whole-plane  live 7/7        x1
tiny    lenet     4x4  k5 s1 p2  whole-plane  live 100/100    x1
tiny    lenet     8x8  k5 s1 p2  whole-plane  live 75/75      x1
tiny    vgg11     1x1  k1 s1 p0  whole-plane  live 41/41      x1
tiny    vgg11     1x1  k3 s1 p1  whole-plane  live 20/180     x1
tiny    vgg11     1x1  k3 s1 p1  whole-plane  live 41/369     x3
tiny    vgg11     2x2  k3 s1 p1  whole-plane  live 180/180    x1
tiny    vgg11     2x2  k3 s1 p1  whole-plane  live 90/90      x1
tiny    vgg11     4x4  k3 s1 p1  whole-plane  live 45/45      x1
tiny    vgg11     8x8  k3 s1 p1  whole-plane  live 27/27      x1
tiny    resnet18  1x1  k1 s1 p0  whole-plane  live 41/41      x1
tiny    resnet18  1x1  k3 s1 p1  whole-plane  live 41/369     x3
tiny    resnet18  2x2  k1 s2 p0  per-row      live 20/20      x1
tiny    resnet18  2x2  k3 s1 p1  whole-plane  live 180/180    x3
tiny    resnet18  2x2  k3 s2 p1  per-row      live 80/180     x1
tiny    resnet18  4x4  k1 s2 p0  per-row      live 10/10      x1
tiny    resnet18  4x4  k3 s1 p1  whole-plane  live 90/90      x3
tiny    resnet18  4x4  k3 s2 p1  per-row      live 90/90      x1
tiny    resnet18  8x8  k1 s2 p0  per-row      live 5/5        x1
tiny    resnet18  8x8  k3 s1 p1  whole-plane  live 27/27      x1
tiny    resnet18  8x8  k3 s1 p1  whole-plane  live 45/45      x4
tiny    resnet18  8x8  k3 s2 p1  per-row      live 45/45      x1
reduced lenet     1x1  k1 s1 p0  whole-plane  live 11/11      x1
reduced lenet     1x1  k1 s1 p0  whole-plane  live 15/15      x1
reduced lenet     1x1  k1 s1 p0  whole-plane  live 64/64      x1
reduced lenet     8x8  k5 s1 p2  whole-plane  live 100/100    x1
reduced lenet    16x16 k5 s1 p2  whole-plane  live 75/75      x1
reduced vgg11     1x1  k1 s1 p0  whole-plane  live 64/64      x1
reduced vgg11     1x1  k3 s1 p1  whole-plane  live 64/576     x2
reduced vgg11     2x2  k3 s1 p1  whole-plane  live 288/288    x1
reduced vgg11     2x2  k3 s1 p1  whole-plane  live 576/576    x1
reduced vgg11     4x4  k3 s1 p1  whole-plane  live 144/144    x1
reduced vgg11     4x4  k3 s1 p1  whole-plane  live 288/288    x1
reduced vgg11     8x8  k3 s1 p1  whole-plane  live 72/72      x1
reduced vgg11    16x16 k3 s1 p1  whole-plane  live 27/27      x1
reduced resnet18  1x1  k1 s1 p0  whole-plane  live 64/64      x1
reduced resnet18  2x2  k3 s1 p1  whole-plane  live 576/576    x3
reduced resnet18  4x4  k1 s2 p0  per-row      live 32/32      x1
reduced resnet18  4x4  k3 s1 p1  whole-plane  live 288/288    x3
reduced resnet18  4x4  k3 s2 p1  per-row      live 288/288    x1
reduced resnet18  8x8  k1 s2 p0  per-row      live 16/16      x1
reduced resnet18  8x8  k3 s1 p1  whole-plane  live 144/144    x3
reduced resnet18  8x8  k3 s2 p1  per-row      live 144/144    x1
reduced resnet18 16x16 k1 s2 p0  per-row      live 8/8        x1
reduced resnet18 16x16 k3 s1 p1  whole-plane  live 27/27      x1
reduced resnet18 16x16 k3 s1 p1  whole-plane  live 72/72      x4
reduced resnet18 16x16 k3 s2 p1  per-row      live 72/72      x1
`

// TestModelConvPaths pins which im2col/col2im path every convolution
// the evaluation models build takes — the whole-plane copy or the
// per-row fallback — at the two scales the tests and the benchmark
// run: every stride-1 same-padded conv and every dense head takes
// whole planes; only the stride-2 convs of ResNet-18's three
// downsampling blocks, 3x3 and 1x1 shortcut alike, fall back to rows.
// It pins each conv's live rows too: at ReducedScale only VGG-11's two
// 3x3 convs on 1x1 planes have dead taps (64 of 576 rows live), every
// ResNet-18 and LeNet conv runs on its full k. DESIGN.md §3(c) carries
// the table.
func TestModelConvPaths(t *testing.T) {
	var got []string
	for _, sc := range []struct {
		name  string
		scale train.Scale
	}{{"tiny", train.TinyScale}, {"reduced", train.ReducedScale}} {
		for _, kind := range []string{"lenet", "vgg11", "resnet18"} {
			count := map[string]int{}
			add := func(g tensor.ConvGeom) {
				path := "per-row"
				if tensor.WholePlane(g) {
					path = "whole-plane"
				}
				live := fmt.Sprintf("%d/%d", g.InC*len(g.LiveTaps(nil)), g.K())
				count[fmt.Sprintf("%-7s %-8s %2dx%-2d k%d s%d p%d  %-11s  live %-9s", sc.name, kind, g.InH, g.InW, g.KH, g.Stride, g.Pad, path, live)]++
			}
			conv := func(name string, inC, outC, k, stride, pad int, rng *rand.Rand) nn.Layer {
				return &geomRecorder{nn.NewConv2D(name, inC, outC, k, stride, pad, rng), inC, outC, k, stride, pad, add}
			}
			m, err := models.ByKind(kind, models.Config{Classes: 10, InputHW: sc.scale.HW, Width: sc.scale.Width, Conv: conv, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.Forward(tensor.New(1, 3, sc.scale.HW, sc.scale.HW), false)
			nn.VisitLayers(m, func(l nn.Layer) {
				if fc, ok := l.(*nn.Linear); ok {
					add(tensor.Geometry(fc.In, 1, 1, fc.Out, 1, 1, 1, 0))
				}
			})
			keys := make([]string, 0, len(count))
			for k := range count {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				got = append(got, fmt.Sprintf("%s  x%d", k, count[k]))
			}
		}
	}
	if g, w := strings.Join(got, "\n"), strings.TrimSpace(modelConvPaths); g != w {
		t.Errorf("conv paths changed:\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
}
