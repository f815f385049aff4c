package nn

import (
	"fmt"
	"math"

	"github.com/appmult/retrain/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (N, C) against integer labels, and the loss gradient w.r.t. the
// logits (softmax - onehot, scaled by 1/N). It is numerically
// stabilized by max subtraction.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n := logits.Shape[0]
	grad := tensor.New(logits.Shape...)
	sum := SoftmaxCrossEntropySumInto(grad, logits, labels, n)
	return sum / float64(n), grad
}

// SoftmaxCrossEntropySumInto is the slice-level form of
// SoftmaxCrossEntropy used by the sharded trainer: it writes the loss
// gradient into dst (shape (N, C), overwritten) and returns the SUM of
// the per-row losses rather than their mean. The gradient is scaled by
// 1/denom — the full minibatch size when logits hold only one shard's
// rows — so per-shard gradients sum to exactly the full-batch gradient.
// Row losses accumulate sequentially in float64, making the returned
// sum independent of how the batch was sliced.
func SoftmaxCrossEntropySumInto(dst, logits *tensor.Tensor, labels []int, denom int) float64 {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: loss expects (N,C) logits, got %v", logits.Shape))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	if dst.Numel() != n*c {
		panic(fmt.Sprintf("nn: loss gradient buffer %v for logits %v", dst.Shape, logits.Shape))
	}
	if denom < 1 {
		panic("nn: loss denominator must be positive")
	}
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		label := labels[i]
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, c))
		}
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logSum := math.Log(sum)
		loss += logSum - float64(row[label]-mx)
		inv := 1 / float64(denom)
		for j, v := range row {
			p := math.Exp(float64(v-mx)) / sum
			g := float64(p * inv) // rounded: never fused into the -= below
			if j == label {
				g -= inv
			}
			dst.Data[i*c+j] = float32(g)
		}
	}
	return loss
}

// TopKCorrect counts rows whose label appears in the top-k logits —
// top-1 and top-5 accuracy both reduce to this.
func TopKCorrect(logits *tensor.Tensor, labels []int, k int) int {
	n, c := logits.Shape[0], logits.Shape[1]
	if k < 1 {
		panic("nn: k must be positive")
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		target := row[labels[i]]
		// Count entries strictly greater than the target score; ties
		// resolve in the label's favor, matching common practice.
		higher := 0
		for _, v := range row {
			if v > target {
				higher++
			}
		}
		if higher < k {
			correct++
		}
	}
	return correct
}
