package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one latency sample set. Failed operations enter the
// set as +Inf: a request that failed or was refused missed every latency
// limit, so it must push the percentiles up, never drop out of them.
type summary struct {
	N      int
	Failed int
	P50    float64
	// P99 is always computed; P99OK says whether the 1000 samples that
	// make it a p99 (ten beyond it) stand behind it.
	P99   float64
	P99OK bool
	// Tail is the highest of p90, p99 and p99.9 with at least ten
	// samples beyond it (0 when N < 100); TailP names which one.
	Tail  float64
	TailP float64
}

// tailPercentile is the highest of the reported percentiles that has
// at least ten samples beyond it in a set of n. ok is false when even
// p90 is unsupported (n < 100).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle of xs (mean of the two middles for even sizes);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// summarize sorts xs in place (failures as +Inf) and reads the median
// and the tail percentile off it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs)}
	for _, x := range xs {
		if math.IsInf(x, 1) {
			s.Failed++
		}
	}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(xs, 50)
	s.P99, s.P99OK = percentile(xs, 99), len(xs) >= 1000
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP = p
		s.Tail = percentile(xs, p)
	}
	return s
}

// windowCounts splits [0, total) into whole windows of length win and
// counts the events in each; events past the last whole window are
// dropped. A robust mean of such counts keeps a burst of interference
// on the host from swinging a whole phase's rate.
func windowCounts(done []time.Duration, total, win time.Duration) []float64 {
	counts := make([]float64, int(total/win))
	for _, d := range done {
		if i := int(d / win); i >= 0 && i < len(counts) {
			counts[i]++
		}
	}
	return counts
}

// interquartileMean is the mean of the middle half of xs (sorted in
// place): robust to a burst like a median, without a median's rounding
// to whole counts.
func interquartileMean(xs []float64) float64 {
	sort.Float64s(xs)
	q := len(xs) / 4
	mid := xs[q : len(xs)-q]
	if len(mid) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}
