package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 60}}, 60},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 50}}, 60},
		{"nested", []span{{Start: 10, End: 80}, {Start: 20, End: 30}}, 30},
		{"past the parent", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"outside", []span{{Start: 100, End: 120}}, 100},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMarginalIsDifferenceOfMedians(t *testing.T) {
	outer := []float64{10, 12, 11, 50}  // median 11.5
	inner1 := []float64{3, 4, 5}        // median 4
	inner2 := []float64{1, 2, 100, 2.5} // median 2.25
	if got := marginal(outer, inner1, inner2); math.Abs(got-5.25) > 1e-12 {
		t.Fatalf("marginal = %v, want 5.25", got)
	}
	if outer[3] != 50 {
		t.Fatal("marginal reordered its input")
	}
}

func TestRecorderSelfTimesAndOff(t *testing.T) {
	r := newRecorder()
	r.on = true
	root := r.begin(0, -1, "request")
	r.call(0, root, "a", func() { time.Sleep(2 * time.Millisecond) })
	r.end(root)
	r.on = false
	r.call(1, r.begin(1, -1, "request"), "a", func() {})
	if len(r.spans) != 2 {
		t.Fatalf("%d spans recorded, want 2 (recording was off for request 1)", len(r.spans))
	}
	self := r.selfTimes("request")[0]
	total := r.durations("request")[0]
	child := r.durations("a")[0]
	if child < 2 || math.Abs(self-(total-child)) > 1e-9 {
		t.Fatalf("request %vms = self %vms + child %vms?", total, self, child)
	}
}
