package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The reference host is shared: for minutes at
// a time a neighbour takes a third of the CPU this process would get,
// and every CPU-bound duration — a training step, a set-up, and equally
// this file's fixed calibration kernel — stretches by the same factor
// (README.md, "Host-speed normalisation", has the measurements: raw
// p10s drift 17-36 % between sessions, normalised ones a third of
// that). No percentile survives interference that lasts longer than
// the run, so the CPU-bound end-to-end times are divided by the speed
// factor measured alongside them: a calibrate() sample before every
// training op, five before and after each of their set-ups. The serving
// workloads are left alone: most of a request is the batcher's 2 ms
// timer, which does not stretch.

// calibNominalMs is the median calibrate() time on the reference host
// when it is quiet; it only fixes the unit of the speed factor, so that
// normalised times read as milliseconds on that host.
const calibNominalMs = 0.33

// speedFactor is how many times slower than nominal the host ran while
// the samples (calibrate() times in ms) were taken.
func speedFactor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return p50(samples) / calibNominalMs
}

// calibBlock is how many consecutive ops share one speed factor: long
// enough for a steady median of their calibration samples, short enough
// (a third of a second of vgg11 steps) to follow a burst.
const calibBlock = 10

// normalise divides every op time by the speed factor of its block of
// calibBlock consecutive ops; calib[i] is the sample taken before op i.
func normalise(ms, calib []float64) []float64 {
	out := make([]float64, len(ms))
	for lo := 0; lo < len(ms); lo += calibBlock {
		hi := min(lo+calibBlock, len(ms))
		f := speedFactor(calib[lo:hi])
		for i := lo; i < hi; i++ {
			out[i] = ms[i] / f
		}
	}
	return out
}

func calibrateMs() float64 { return float64(calibrate()) / 1e6 }

// setupBracket is how many calibration samples are taken on each side
// of a set-up.
const setupBracket = 5

// timedSetup times fn, one from-scratch set-up, in seconds. A cpuBound
// set-up (the retrain workloads': tables, model, data, first step) is
// divided by the host's speed factor around it; a serving set-up, a
// third of which is the first request's wait in the batching window, is
// left raw like the serving ops.
func timedSetup(cpuBound bool, fn func() error) (float64, error) {
	if !cpuBound {
		t := time.Now()
		err := fn()
		return time.Since(t).Seconds(), err
	}
	samples := make([]float64, 0, 2*setupBracket)
	for i := 0; i < setupBracket; i++ {
		samples = append(samples, calibrateMs())
	}
	t := time.Now()
	err := fn()
	d := time.Since(t)
	for i := 0; i < setupBracket; i++ {
		samples = append(samples, calibrateMs())
	}
	return d.Seconds() / speedFactor(samples), err
}

// calibrate runs a fixed amount of CPU-bound work the way the program's
// kernels do — split over the cores and joined at a barrier — and
// returns how long it took. Its cost depends only on how much CPU the
// host gives this process right now, never on the code under test.
func calibrate() time.Duration {
	workers := min(runtime.GOMAXPROCS(0), calibWorkers)
	t := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calibSink[w] = calibSpin(calibBufs[w][:])
		}(w)
	}
	calibSink[0] = calibSpin(calibBufs[0][:])
	wg.Wait()
	return time.Since(t)
}

const (
	calibWorkers = 2
	calibLen     = 8 << 10 // 32 KiB of float32 per worker: L1-resident
	calibPasses  = 48
)

var (
	calibBufs [calibWorkers][calibLen]float32
	calibSink [calibWorkers]float32
)

func init() {
	for w := range calibBufs {
		for i := range calibBufs[w] {
			calibBufs[w][i] = float32(i%7) * 0.25
		}
	}
}

// calibSpin is a multiply-accumulate sweep, the inner loop shape of the
// float and LUT GEMMs.
func calibSpin(buf []float32) float32 {
	var a0, a1, a2, a3 float32
	for p := 0; p < calibPasses; p++ {
		s := float32(p) * 0.5
		for i := 0; i+4 <= len(buf); i += 4 {
			a0 += buf[i] * s
			a1 += buf[i+1] * s
			a2 += buf[i+2] * s
			a3 += buf[i+3] * s
		}
	}
	return a0 + a1 + a2 + a3
}
