package main

import (
	"math"
	"sort"
)

// This file holds the benchmark's estimators. The host is shared and
// interference only ever adds time to an op, so the gated statistics
// look at the fast side of each distribution (10th percentile, mean of
// the fastest half); medians and upper percentiles are reported as
// ungated run.* context.

// percentile returns the q-quantile (0..1) of vals by linear
// interpolation between order statistics: q=0 is the minimum, q=1 the
// maximum. vals is not modified. An empty input yields 0.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// trimmedHalfMean is the mean of the fastest half of vals (the
// ceil(n/2) smallest values): the interference-trimmed cost of one op.
func trimmedHalfMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := (len(s) + 1) / 2
	var sum float64
	for _, v := range s[:n] {
		sum += v
	}
	return sum / float64(n)
}

// stratified applies est to each request class separately and returns
// the share-weighted mean, weights being each class's share of the
// samples. The generator knows an op's class (fresh vs repeat) before
// sending it, so this is a property of the plan, not of the outcome;
// without it a p10 over a 50/50 mix would only ever see the fast class.
// class[i] is the class of vals[i].
func stratified(vals []float64, class []uint8, est func([]float64) float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	by := map[uint8][]float64{}
	for i, v := range vals {
		by[class[i]] = append(by[class[i]], v)
	}
	var out float64
	for _, vs := range by {
		out += est(vs) * float64(len(vs)) / float64(len(vals))
	}
	return out
}

func p10(vals []float64) float64 { return percentile(vals, 0.10) }
func p50(vals []float64) float64 { return percentile(vals, 0.50) }

// tailPercentile reports the q-quantile only when at least minBeyond
// samples lie beyond it, so a reported tail is never one outlier.
func tailPercentile(vals []float64, q float64, minBeyond int) (v float64, ok bool) {
	beyond := int(float64(len(vals)) * (1 - q))
	if beyond < minBeyond {
		return 0, false
	}
	return percentile(vals, q), true
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), which is what the benchmark driver uses for its spreads.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}
