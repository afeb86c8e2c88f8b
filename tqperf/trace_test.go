package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 50, 4000)
	if !reflect.DeepEqual(a, poissonSchedule(7, 50, 4000)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 50, 4000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("send times go backwards at %d", i)
		}
	}
	// 4000 exponential gaps at 50/s: mean 20ms, standard error 0.32ms.
	mean := a[len(a)-1] / time.Duration(len(a))
	if mean < 18*time.Millisecond || mean > 22*time.Millisecond {
		t.Fatalf("mean gap %v, want about 20ms", mean)
	}
}

func TestZipfPoolDeterministic(t *testing.T) {
	w, err := findWorkload("hot-small")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) ([]int, [][]byte) {
		g := newGenerator(w, seed)
		var keys []int
		var bodies [][]byte
		for i := 0; i < 3000; i++ {
			o := g.next()
			keys = append(keys, o.key)
			bodies = append(bodies, o.body)
		}
		return keys, bodies
	}
	k1, b1 := draw(3)
	k2, b2 := draw(3)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("same seed gave different traces")
	}
	k3, b3 := draw(4)
	if reflect.DeepEqual(k1, k3) || bytes.Equal(b1[0], b3[0]) && bytes.Equal(b1[1], b3[1]) {
		t.Fatal("different seeds gave the same trace")
	}
	// Zipf(1.1) over 512 keys: key 0 is the most drawn, and the trace
	// repeats keys, which is what lets the result cache hit.
	count := map[int]int{}
	for _, k := range k1 {
		if k < 0 || k >= w.pool {
			t.Fatalf("key %d outside the pool", k)
		}
		count[k]++
	}
	for k, c := range count {
		if c > count[0] {
			t.Fatalf("key %d drawn %d times, more than key 0 (%d)", k, c, count[0])
		}
	}
	if len(count) > len(k1)/2 {
		t.Fatalf("%d distinct keys in %d draws: too few repeats", len(count), len(k1))
	}
}

func TestUniqueTracesDeterministic(t *testing.T) {
	for _, name := range []string{"cold-scan", "write-mix", "coverage"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := newGenerator(w, 5), newGenerator(w, 5)
		kinds := map[opKind]int{}
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			a, b := g1.next(), g2.next()
			if a.kind != b.kind || !bytes.Equal(a.body, b.body) || a.id != b.id || !reflect.DeepEqual(a.facs, b.facs) {
				t.Fatalf("%s op %d differs between two generators on one seed", name, i)
			}
			kinds[a.kind]++
			if a.body != nil {
				if seen[string(a.body)] {
					t.Fatalf("%s op %d repeats an earlier body", name, i)
				}
				seen[string(a.body)] = true
			}
		}
		if name == "write-mix" {
			writes := float64(kinds[opInsert] + kinds[opDelete])
			if math.Abs(writes/200-w.writeShare) > 0.1 || kinds[opInsert] < 2*kinds[opDelete] {
				t.Fatalf("write-mix op mix %v", kinds)
			}
		}
	}
}
