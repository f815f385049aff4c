//go:build amd64 && !purego

package optim

import "github.com/appmult/retrain/internal/tensor"

// adamAVX2 runs adamTail's update on elements [0, n), n a positive
// multiple of 4, four float64 lanes at a time (adam_amd64.s).
//
//go:noescape
func adamAVX2(val, grad *float32, m, v *float64, c *adamConsts, n int64)

// adamBlocks updates the leading whole 4-lane blocks of one parameter
// and returns how many elements it covered; adamTail finishes the rest.
func adamBlocks(val, grad []float32, m, v []float64, c *adamConsts) int {
	n := len(m) &^ 3
	if !tensor.HasAVX2 || n == 0 {
		return 0
	}
	adamAVX2(&val[0], &grad[0], &m[0], &v[0], c, int64(n))
	return n
}
