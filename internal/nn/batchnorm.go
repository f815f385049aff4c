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
	// gradient sums the same way. The buffers hold the vectors in the
	// syncer's packing, so a reduction publishes them as they are.
	sync       BNSyncer
	syncIdx    int
	syncActive bool
	syncCnt    float64
	meanBuf    []float64
	sumBuf     []float64 // per-channel sums, then the element count (c+1 wide)
	sqBuf      []float64 // per-channel squared deviations (c wide)
	gradBuf    []float64 // local backward Σdy, then Σdy·x̂ (2c wide)

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

// sumChannels sets sums[i] to channel ch+i's sumChannel: a full group
// of bnLanes channels at once on the AVX2 lanes, each channel's chain
// in its own order, otherwise one channel after another.
func sumChannels(sums []float64, x []float32, n, c, hw, ch int) {
	if len(sums) == bnLanes && sumLanes((*[bnLanes]float64)(sums), x[ch*hw:], n, hw, c*hw) {
		return
	}
	for i := range sums {
		sums[i] = sumChannel(x, n, c, hw, ch+i)
	}
}

// sqDevChannels is sumChannels for sqDevChannel about means[i].
func sqDevChannels(sq, means []float64, x []float32, n, c, hw, ch int) {
	if len(sq) == bnLanes && sqDevLanes((*[bnLanes]float64)(sq), x[ch*hw:], (*[bnLanes]float64)(means), n, hw, c*hw) {
		return
	}
	for i := range sq {
		sq[i] = sqDevChannel(x, n, c, hw, ch+i, means[i])
	}
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
// from its moments, packed as a sync-BN reduction packs them: sums is
// the per-channel sums followed by the element count per channel
// (rows * H * W), sq the per-channel squared deviations about the batch
// mean — the moments a training forward folds, which a sync-BN
// reduction hands back folded over every participant. The dist
// coordinator commits a step's statistics to its primary through here,
// so the primary and the workers' replicas run the same arithmetic.
func (b *BatchNorm2D) UpdateRunning(sums, sq []float64) {
	n, m := sums[b.C], b.Momentum
	for ch := 0; ch < b.C; ch++ {
		mean, vr := sums[ch]/n, sq[ch]/n
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
	var xh []float32
	if caches {
		b.invStd[ch] = inv
		xh = b.xhat.Data[ch*hw:]
	}
	k := [4]float64{mean, inv, g, bt}
	done := bnNormalizeBlocks(b.out.Data[ch*hw:], xh, x[ch*hw:], n, hw, c*hw, &k)
	m := hw - done
	for img := 0; img < n; img++ {
		base := (img*c+ch)*hw + done
		out := b.out.Data[base:][:m]
		if !caches {
			for j, v := range x[base:][:m] {
				out[j] = float32(float64(g*((float64(v)-mean)*inv)) + bt)
			}
			continue
		}
		xhat := b.xhat.Data[base:][:m]
		for j, v := range x[base:][:m] {
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
	b.sumBuf = grow(b.sumBuf, c+1)
	b.sqBuf = grow(b.sqBuf, c)
	b.sumBuf[c] = float64(n * hw)
	b.run = bnRun{b: b, x: x.Data, n: n, c: c, hw: hw, cnt: b.sumBuf[c], sq: b.sqBuf}
	if !b.syncActive {
		b.runChannels(bnForward)
		b.syncCnt = b.run.cnt
		b.UpdateRunning(b.sumBuf, b.sqBuf)
		return b.out
	}

	b.runChannels(bnSums)
	copy(b.sumBuf, b.sync.Reduce(b.syncIdx, b.sumBuf)) // the syncer's slice is valid only until its next reduction
	b.run.cnt = b.sumBuf[c]
	b.syncCnt = b.run.cnt
	b.runChannels(bnSquares)
	b.run.sq = b.sync.Reduce(b.syncIdx, b.sqBuf)
	b.UpdateRunning(b.sumBuf, b.run.sq)
	b.runChannels(bnNormalize)
	return b.out
}

// runChannels runs one per-channel pass of b.run over every channel.
func (b *BatchNorm2D) runChannels(pass bnPass) {
	b.run.pass = pass
	runPass(&b.run, len(b.run.x), b.run.c, 1, bnLanes)
}

// bnLanes is the channel group of the per-channel reductions — the
// float64 lanes of one AVX2 register — and the pool's block of
// channels, so a pooled pass keeps its groups whole.
const bnLanes = 4

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
	bnGradSums                // gradBuf
	bnInputGrad               // parameter gradients from the local sums, dx from gdy, gdyx
)

// bnRun is the training passes' body over channels [lo, hi), in groups
// of bnLanes: every channel's sums run over its own elements in the
// order the one-channel helpers fix, so neither the grouping nor
// splitting the channels among workers changes a bit.
// x is the forward input or the backward's dy.
type bnRun struct {
	b         *BatchNorm2D
	pass      bnPass
	x         []float32
	n, c, hw  int
	cnt       float64
	sq        []float64 // the squared deviations normalization divides by cnt
	gdy, gdyx []float64 // the folded gradient sums of bnInputGrad
	dBeta     []float32 // where the backward adds Beta's gradient, and Gamma's
	dGamma    []float32
}

func (t *bnRun) RunRange(lo, hi int) {
	for ch := lo; ch < hi; ch += bnLanes {
		t.group(ch, min(ch+bnLanes, hi))
	}
}

// group runs the pass over channels [lo, hi), at most bnLanes of them.
func (t *bnRun) group(lo, hi int) {
	b, x, n, c, hw := t.b, t.x, t.n, t.c, t.hw
	switch t.pass {
	case bnForward:
		sumChannels(b.sumBuf[lo:hi], x, n, c, hw, lo)
		t.squares(lo, hi)
		t.normalize(lo, hi)
	case bnSums:
		sumChannels(b.sumBuf[lo:hi], x, n, c, hw, lo)
	case bnSquares:
		t.squares(lo, hi)
	case bnNormalize:
		t.normalize(lo, hi)
	case bnBackward:
		var dy, dyx [bnLanes]float64
		gradSumsChannels(dy[:hi-lo], dyx[:hi-lo], x, b.xhat.Data, n, c, hw, lo)
		for ch := lo; ch < hi; ch++ {
			sumDy, sumDyXhat := dy[ch-lo], dyx[ch-lo]
			t.dBeta[ch] += float32(sumDy)
			t.dGamma[ch] += float32(sumDyXhat)
			b.inputGradChannel(x, n, c, hw, ch, t.cnt, sumDy, sumDyXhat)
		}
	case bnGradSums:
		gradSumsChannels(b.gradBuf[lo:hi], b.gradBuf[c+lo:c+hi], x, b.xhat.Data, n, c, hw, lo)
	case bnInputGrad:
		for ch := lo; ch < hi; ch++ {
			t.dBeta[ch] += float32(b.gradBuf[ch])
			t.dGamma[ch] += float32(b.gradBuf[c+ch])
			b.inputGradChannel(x, n, c, hw, ch, t.cnt, t.gdy[ch], t.gdyx[ch])
		}
	}
}

// squares derives channels [lo, hi)'s means from their (folded) sums
// and their squared deviations about them.
func (t *bnRun) squares(lo, hi int) {
	b := t.b
	for ch := lo; ch < hi; ch++ {
		b.meanBuf[ch] = b.sumBuf[ch] / t.cnt
	}
	sqDevChannels(b.sqBuf[lo:hi], b.meanBuf[lo:hi], t.x, t.n, t.c, t.hw, lo)
}

// normalize writes channels [lo, hi) of the output and the backward
// caches.
func (t *bnRun) normalize(lo, hi int) {
	for ch := lo; ch < hi; ch++ {
		t.b.normalizeChannel(t.x, t.n, t.c, t.hw, ch, t.b.meanBuf[ch], t.sq[ch]/t.cnt, true)
	}
}

// gradSumsChannels is sumChannels for gradSumsChannel.
func gradSumsChannels(sumDy, sumDyXhat []float64, dy, xhat []float32, n, c, hw, ch int) {
	if len(sumDy) == bnLanes && gradSumsLanes((*[bnLanes]float64)(sumDy), (*[bnLanes]float64)(sumDyXhat), dy[ch*hw:], xhat[ch*hw:], n, hw, c*hw) {
		return
	}
	for i := range sumDy {
		sumDy[i], sumDyXhat[i] = gradSumsChannel(dy, xhat, n, c, hw, ch+i)
	}
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
	k := [4]float64{cnt, sumDy, sumDyXhat, coef}
	done := bnInputGradBlocks(b.dx.Data[ch*hw:], dy[ch*hw:], b.xhat.Data[ch*hw:], n, hw, c*hw, &k)
	m := hw - done
	for img := 0; img < n; img++ {
		base := (img*c+ch)*hw + done
		dx, xhat := b.dx.Data[base:][:m], b.xhat.Data[base:][:m]
		for j, v := range dy[base:][:m] {
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
	b.run = bnRun{b: b, x: dy.Data, n: n, c: c, hw: hw, cnt: float64(n * hw),
		dBeta: b.Beta.oneGrad(), dGamma: b.Gamma.oneGrad()}
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
	b.gradBuf = grow(b.gradBuf, 2*b.C)
	b.runChannels(bnGradSums)
	g := b.sync.Reduce(b.syncIdx, b.gradBuf)
	b.run.gdy, b.run.gdyx = g[:b.C], g[b.C:]
	b.run.cnt = b.syncCnt
	b.runChannels(bnInputGrad)
	return b.dx
}
