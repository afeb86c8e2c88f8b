package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json tqperf's output
// must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var missing []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: missing %v; reported %v", what, missing, names)
	}
}

// Every workload BENCHMARK.json names must exist in tqperf (which
// may define more: write-mix runs on request but is not gated).
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// The traced replay and the in-process coverage run must report exactly
// the metrics BENCHMARK.json declares, with the declared units. (The
// HTTP runs report the same end-to-end names; they need a tqserve
// binary and are exercised through run.sh.)
func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds indexes over full workload corpora")
	}
	b := loadBenchmarkJSON(t)
	w, err := findWorkload("coverage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: w, seed: 1, seconds: 0.3, workdir: t.TempDir()}

	rep := newReport()
	if err := runCoverage(cfg, rep); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "coverage run", rep.metrics, b.EndToEnd)

	cfg.seconds, cfg.trace = 0.001, true
	rep = newReport()
	if err := runReplay(cfg, rep); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "traced replay", rep.metrics, b.PerLayer)
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("replay: %d failed ops, failed checks %v", rep.failed, rep.problems)
	}
}
