package nn

import (
	"fmt"
	"math"

	"github.com/appmult/retrain/internal/tensor"
)

// BatchNorm2D normalizes each channel over (N, H, W) with learnable
// scale/shift and running statistics for evaluation.
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param
	// Running statistics (not trained by gradient).
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Forward caches, and the layer-owned output and input gradient.
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int
	out, dx *tensor.Tensor

	// Sync-BN hookup (see BNSyncer): when sync is non-nil, training
	// forwards compute full-batch statistics by all-reducing moments
	// across the syncer's participants, and Backward all-reduces the
	// gradient sums the same way.
	sync       BNSyncer
	syncIdx    int
	syncActive bool
	syncCnt    float64
	meanBuf    []float64
	sumBuf     []float64 // per-channel sums (c wide)
	sqBuf      []float64 // per-channel squared deviations (c wide)
	dyBuf      []float64 // local backward dy sums (c wide)
	dyxBuf     []float64 // local backward dy*xhat sums (c wide)

	// run carries the training passes' per-channel work (bnRun).
	run bnRun
}

// SetSyncGroup attaches the layer to a cross-shard moment syncer as
// participant idx (nil detaches, restoring single-replica behaviour).
// All replicas of a sharded model attach their position-matched
// BatchNorm2D layers to one shared syncer — an in-process BNSyncGroup,
// or a network proxy forwarding to a coordinator-hosted group.
func (b *BatchNorm2D) SetSyncGroup(g BNSyncer, idx int) {
	if g != nil && g.Channels() != b.C {
		panic(fmt.Sprintf("nn: %s has %d channels, sync group %d", b.name, b.C, g.Channels()))
	}
	b.sync = g
	b.syncIdx = idx
	b.syncActive = false
}

// NewBatchNorm2D constructs a batch normalization layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       newParam(name+".gamma", c),
		Beta:        newParam(name+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return b.forwardTrain(x)
	}
	b.syncActive = false
	n, c, hw := b.begin(x, true)
	for ch := 0; ch < c; ch++ {
		b.normalizeChannel(x.Data, n, c, hw, ch, float64(b.RunningMean.Data[ch]), float64(b.RunningVar.Data[ch]), true)
	}
	return b.out
}

// Infer implements Inferer: evaluation-mode normalization from the
// running statistics, without the xhat/invStd backward caches — the
// float64 sequence of Forward(train=false), so bit-identical outputs.
func (b *BatchNorm2D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, hw := b.begin(x, false)
	for ch := 0; ch < c; ch++ {
		b.normalizeChannel(x.Data, n, c, hw, ch, float64(b.RunningMean.Data[ch]), float64(b.RunningVar.Data[ch]), false)
	}
	return b.out
}

// begin validates x and sizes the layer-owned output, plus the forward
// caches when a Backward may follow.
func (b *BatchNorm2D) begin(x *tensor.Tensor, caches bool) (n, c, hw int) {
	if len(x.Shape) != 4 || x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", b.name, b.C, x.Shape))
	}
	n, c, hw = x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	b.out = tensor.Ensure4(b.out, n, c, x.Shape[2], x.Shape[3])
	if caches {
		b.inShape = append(b.inShape[:0], x.Shape...)
		b.xhat = tensor.Ensure4(b.xhat, n, c, x.Shape[2], x.Shape[3])
		b.invStd = grow(b.invStd, c)
	}
	return n, c, hw
}

// sumChannel returns the float64 sum of channel ch of the NCHW buffer x
// (n images of c channels of hw positions), images and positions
// ascending — the summation order of every per-channel pass below.
func sumChannel(x []float32, n, c, hw, ch int) float64 {
	var s float64
	for img := 0; img < n; img++ {
		for _, v := range x[(img*c+ch)*hw:][:hw] {
			s += float64(v)
		}
	}
	return s
}

// sqDevChannel returns channel ch's sum of squared deviations about
// mean.
func sqDevChannel(x []float32, n, c, hw, ch int, mean float64) float64 {
	var s float64
	for img := 0; img < n; img++ {
		for _, v := range x[(img*c+ch)*hw:][:hw] {
			d := float64(v) - mean
			s += float64(d * d)
		}
	}
	return s
}

// UpdateRunning folds one training batch into the running statistics
// from its per-channel sums, its per-channel squared deviations about
// the batch mean, and its element count per channel (rows * H * W) —
// the moments a training forward folds, which a sync-BN reduction hands
// back folded over every participant. The dist coordinator commits a
// step's statistics to its primary through here, so the primary and
// the workers' replicas run the same arithmetic.
func (b *BatchNorm2D) UpdateRunning(sum, sq []float64, cnt int) {
	n, m := float64(cnt), b.Momentum
	for ch := 0; ch < b.C; ch++ {
		mean, vr := sum[ch]/n, sq[ch]/n
		b.RunningMean.Data[ch] = float32(float64((1-m)*float64(b.RunningMean.Data[ch])) + float64(m*mean))
		b.RunningVar.Data[ch] = float32(float64((1-m)*float64(b.RunningVar.Data[ch])) + float64(m*vr))
	}
}

// normalizeChannel writes channel ch of the output from the given
// moments; caches also records xhat and invStd for Backward.
func (b *BatchNorm2D) normalizeChannel(x []float32, n, c, hw, ch int, mean, vr float64, caches bool) {
	inv := 1 / math.Sqrt(vr+b.Eps)
	g := float64(b.Gamma.Value.Data[ch])
	bt := float64(b.Beta.Value.Data[ch])
	if caches {
		b.invStd[ch] = inv
	}
	for img := 0; img < n; img++ {
		base := (img*c + ch) * hw
		out := b.out.Data[base:][:hw]
		if !caches {
			for j, v := range x[base:][:hw] {
				out[j] = float32(float64(g*((float64(v)-mean)*inv)) + bt)
			}
			continue
		}
		xhat := b.xhat.Data[base:][:hw]
		for j, v := range x[base:][:hw] {
			xh := (float64(v) - mean) * inv
			xhat[j] = float32(xh)
			out[j] = float32(float64(g*xh) + bt)
		}
	}
}

// forwardTrain is the training forward: two-pass batch statistics
// (per-channel sums, then squared deviations about the mean), folded
// into the running statistics and used to normalize. In sync-BN mode
// each pass is a cross-shard all-reduce through the attached BNSyncer,
// which hands back the moments folded over all participants in
// ascending participant order, so every replica derives the identical
// full-batch statistics and updates its running statistics with them —
// the replicas' state stays identical without a broadcast. Without a
// syncer the moments are the local ones, which is the one-participant
// case of the same arithmetic, and every channel runs all of its passes
// in one go. Each pass runs per channel (bnRun), so no sum is cut.
func (b *BatchNorm2D) forwardTrain(x *tensor.Tensor) *tensor.Tensor {
	n, c, hw := b.begin(x, true)
	b.syncActive = b.sync != nil
	b.meanBuf = grow(b.meanBuf, c)
	b.sumBuf = grow(b.sumBuf, c)
	b.sqBuf = grow(b.sqBuf, c)
	total := n * hw
	b.run = bnRun{b: b, x: x.Data, n: n, c: c, hw: hw, cnt: float64(total), sq: b.sqBuf}
	if !b.syncActive {
		b.runChannels(bnForward)
		b.syncCnt = b.run.cnt
		b.UpdateRunning(b.sumBuf, b.sqBuf, total)
		return b.out
	}

	b.runChannels(bnSums)
	folded, total := b.sync.ReduceMoments(b.syncIdx, b.sumBuf, total)
	copy(b.sumBuf, folded) // the syncer's slice is valid only until its next reduction
	b.run.cnt = float64(total)
	b.syncCnt = b.run.cnt
	b.runChannels(bnSquares)
	b.run.sq = b.sync.ReduceSquares(b.syncIdx, b.sqBuf)
	b.UpdateRunning(b.sumBuf, b.run.sq, total)
	b.runChannels(bnNormalize)
	return b.out
}

// runChannels runs one per-channel pass of b.run over every channel.
func (b *BatchNorm2D) runChannels(pass bnPass) {
	b.run.pass = pass
	runPass(&b.run, len(b.run.x), b.run.c, 1, 1)
}

// bnPass names what bnRun computes per channel. bnForward and
// bnBackward are a whole pass of a layer without a syncer; the sync-BN
// paths run their parts around the syncer's reductions.
type bnPass uint8

const (
	bnForward   bnPass = iota // sum, mean, squared deviations, normalization
	bnSums                    // sumBuf
	bnSquares                 // meanBuf, sqBuf from the folded sums
	bnNormalize               // out and the caches from meanBuf and sq
	bnBackward                // gradient sums, parameter gradients, dx
	bnGradSums                // dyBuf, dyxBuf
	bnInputGrad               // parameter gradients from the local sums, dx from gdy, gdyx
)

// bnRun is the training passes' body over channels [lo, hi): every
// channel's sums run over its own elements in the order the one-channel
// helpers fix, so splitting the channels among workers changes no bit.
// x is the forward input or the backward's dy.
type bnRun struct {
	b         *BatchNorm2D
	pass      bnPass
	x         []float32
	n, c, hw  int
	cnt       float64
	sq        []float64 // the squared deviations normalization divides by cnt
	gdy, gdyx []float64 // the folded gradient sums of bnInputGrad
}

func (t *bnRun) RunRange(lo, hi int) {
	b, x, n, c, hw := t.b, t.x, t.n, t.c, t.hw
	for ch := lo; ch < hi; ch++ {
		switch t.pass {
		case bnForward:
			b.sumBuf[ch] = sumChannel(x, n, c, hw, ch)
			t.squares(ch)
			t.normalize(ch)
		case bnSums:
			b.sumBuf[ch] = sumChannel(x, n, c, hw, ch)
		case bnSquares:
			t.squares(ch)
		case bnNormalize:
			t.normalize(ch)
		case bnBackward:
			sumDy, sumDyXhat := gradSumsChannel(x, b.xhat.Data, n, c, hw, ch)
			b.Beta.Grad.Data[ch] += float32(sumDy)
			b.Gamma.Grad.Data[ch] += float32(sumDyXhat)
			b.inputGradChannel(x, n, c, hw, ch, t.cnt, sumDy, sumDyXhat)
		case bnGradSums:
			b.dyBuf[ch], b.dyxBuf[ch] = gradSumsChannel(x, b.xhat.Data, n, c, hw, ch)
		case bnInputGrad:
			b.Beta.Grad.Data[ch] += float32(b.dyBuf[ch])
			b.Gamma.Grad.Data[ch] += float32(b.dyxBuf[ch])
			b.inputGradChannel(x, n, c, hw, ch, t.cnt, t.gdy[ch], t.gdyx[ch])
		}
	}
}

// squares derives channel ch's mean from its (folded) sum and its squared
// deviations about it.
func (t *bnRun) squares(ch int) {
	b := t.b
	b.meanBuf[ch] = b.sumBuf[ch] / t.cnt
	b.sqBuf[ch] = sqDevChannel(t.x, t.n, t.c, t.hw, ch, b.meanBuf[ch])
}

// normalize writes channel ch of the output and the backward caches.
func (t *bnRun) normalize(ch int) {
	t.b.normalizeChannel(t.x, t.n, t.c, t.hw, ch, t.b.meanBuf[ch], t.sq[ch]/t.cnt, true)
}

// gradSumsChannel returns channel ch's sum of dy and of dy*xhat.
func gradSumsChannel(dy, xhat []float32, n, c, hw, ch int) (sumDy, sumDyXhat float64) {
	for img := 0; img < n; img++ {
		base := (img*c + ch) * hw
		xh := xhat[base:][:hw]
		for j, v := range dy[base:][:hw] {
			g := float64(v)
			sumDy += g
			sumDyXhat += float64(g * float64(xh[j]))
		}
	}
	return sumDy, sumDyXhat
}

// inputGradChannel writes channel ch of dx from the (full-batch)
// gradient sums and element count — the training-mode formula
// gamma*inv/cnt * (cnt*dy - sumDy - xhat*sumDyXhat), its loop-invariant
// factor evaluated once, in the order the expression associates.
func (b *BatchNorm2D) inputGradChannel(dy []float32, n, c, hw, ch int, cnt, sumDy, sumDyXhat float64) {
	coef := float64(b.Gamma.Value.Data[ch]) * b.invStd[ch] / cnt
	for img := 0; img < n; img++ {
		base := (img*c + ch) * hw
		dx, xhat := b.dx.Data[base:][:hw], b.xhat.Data[base:][:hw]
		for j, v := range dy[base:][:hw] {
			dx[j] = float32(coef * (float64(cnt*float64(v)) - sumDy - float64(float64(xhat[j])*sumDyXhat)))
		}
	}
}

// Backward implements Layer. It uses the full batch-statistics
// gradient (the training-mode formula), per channel (bnRun).
func (b *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c := b.inShape[0], b.inShape[1]
	hw := b.inShape[2] * b.inShape[3]
	b.dx = tensor.Ensure4(b.dx, n, c, b.inShape[2], b.inShape[3])
	b.run = bnRun{b: b, x: dy.Data, n: n, c: c, hw: hw, cnt: float64(n * hw)}
	if !b.syncActive {
		b.runChannels(bnBackward)
		return b.dx
	}
	return b.backwardSync()
}

// backwardSync is Backward in sync-BN mode: the per-channel gradient
// sums are all-reduced across the group so dx uses the full-batch
// sums and count (the same formula the legacy path applies to a whole
// batch). Beta/Gamma accumulate only the LOCAL sums — the sharded
// trainer's generic cross-shard gradient reduction adds the shards'
// parameter gradients together, which completes those sums globally.
func (b *BatchNorm2D) backwardSync() *tensor.Tensor {
	b.dyBuf = grow(b.dyBuf, b.C)
	b.dyxBuf = grow(b.dyxBuf, b.C)
	b.runChannels(bnGradSums)
	b.run.gdy, b.run.gdyx = b.sync.ReduceGrads(b.syncIdx, b.dyBuf, b.dyxBuf)
	b.run.cnt = b.syncCnt
	b.runChannels(bnInputGrad)
	return b.dx
}
