package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {50000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 90: 900, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummarizeCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	// Eleven failures: the p99 rank (990) falls on a failure.
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.Failed != 11 || !s.P99OK || !math.IsInf(s.P99, 1) || s.P50 != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s := summarize(xs[:999]); s.P99OK || s.TailP != 90 {
		t.Fatalf("999 samples: %+v, want p99 unsupported and p90 tail", s)
	}
}

func TestWindowCounts(t *testing.T) {
	var done []time.Duration
	// Four 1s windows with 10, 10, 2 (a stall) and 12 completions, plus
	// completions past the last whole window, which are dropped.
	for w, n := range []int{10, 10, 2, 12, 50} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	counts := windowCounts(done, 4500*time.Millisecond, time.Second)
	if !reflect.DeepEqual(counts, []float64{10, 10, 2, 12}) {
		t.Fatalf("windowCounts = %v", counts)
	}
	// The middle half of {2, 10, 10, 12} is {10, 10}.
	if m := interquartileMean(counts); m != 10 {
		t.Fatalf("interquartile mean %v, want 10", m)
	}
	if m := interquartileMean([]float64{1, 2, 3, 4, 5, 100, 7, 8}); m != 4.75 {
		t.Fatalf("interquartile mean %v, want 4.75", m)
	}
}
