// Command tqperf is the repository benchmark. Untraced, it starts the
// shipped tqserve binary as a child process, feeds it a seeded corpus
// snapshot and seeded request bodies (open-loop Poisson traffic
// alternating with closed-loop saturation) and reports end-to-end
// latency, throughput, set-up time and memory. Traced (-trace 1), it replays a
// prefix of the same seeded trace in process through each layer's
// public functions in turn and reports per-layer costs and counters.
//
// Run it from the repository root through the wrapper, which builds
// both binaries from the checkout first:
//
//	bash tqperf/run.sh --workload cold-scan --seed 1 --seconds 28 --trace 0
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	tqserve string
	workdir string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tqperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tqperf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: cold-scan, hot-small, write-mix or coverage")
		seed    = fs.Int64("seed", 1, "workload seed: corpus, schedule and request bodies")
		seconds = fs.Float64("seconds", 28, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = in-process traced replay (per-layer metrics), 0 = end-to-end run")
		bin     = fs.String("tqserve", "", "path of the tqserve binary to drive")
		workdir = fs.String("workdir", "", "working directory for snapshots, WALs, logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *workdir == "" {
		return fmt.Errorf("need -seconds > 0, -trace 0|1 and -workdir")
	}
	if *trace == 0 && w.rate > 0 && *bin == "" {
		return fmt.Errorf("workload %s needs -tqserve", w.name)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, tqserve: *bin, workdir: *workdir}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	rep := newReport()
	rep.header(cfg)
	switch {
	case cfg.trace:
		err = runReplay(cfg, rep)
	case w.rate == 0:
		err = runCoverage(cfg, rep)
	default:
		err = runHTTP(cfg, rep)
	}
	if err != nil {
		return err
	}
	return rep.finish()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and check verdicts and prints them:
// one readable line each as they arrive, then the result object.
type report struct {
	metrics   map[string]metric
	problems  []string // failed output checks
	invalid   []string // failed validity checks
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// header prints the run's provenance: every figure names its host.
func (r *report) header(c config) {
	h := map[string]any{
		"workload":   c.w.name,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"corpus":     c.w.corpus,
		"shards":     c.w.shards,
		"workers":    workers(),
		"routes":     c.w.routes,
		"stops":      c.w.stops,
		"k":          c.w.k,
		"psi":        c.w.psi,
	}
	if c.w.rate > 0 {
		h["rate_per_s"] = c.w.rate
		h["clients"] = workers()
		h["loop"] = fmt.Sprintf("open-loop Poisson alternating with closed-loop saturation, %d cycles", cycles)
	} else {
		h["clients"] = coverageCallers
		h["loop"] = "in-process closed loop"
	}
	if c.w.wal {
		h["wal_sync"] = "always"
		h["maxdelta"] = c.w.maxDelta
	}
	b, _ := json.Marshal(h)
	fmt.Printf("# run %s\n", b)
}

// metric records a result metric and prints it with its unit and note
// (typically the sample count behind it).
func (r *report) metric(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.line(name, v, unit, note)
}

// line prints a figure that is reported but not part of the result
// object.
func (r *report) line(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-28s %14.4f %-8s%s\n", name, v, unit, note)
}

// check prints an output check's verdict; a failed one makes the run
// incorrect.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.verdict("check", &r.problems, name, ok, format, args...)
}

// valid prints a workload validity check's verdict; a failed one marks
// the run invalid: its figures do not describe the workload it names
// (the generator fell behind, the cache did not behave as the workload
// intends). Invalid is not incorrect: the answers were still checked.
func (r *report) valid(name string, ok bool, format string, args ...any) {
	r.verdict("valid", &r.invalid, name, ok, format, args...)
}

func (r *report) verdict(kind string, failed *[]string, name string, ok bool, format string, args ...any) {
	v := "ok"
	if !ok {
		v = "FAIL"
		*failed = append(*failed, name)
	}
	fmt.Printf("%s %-24s %-4s %s\n", kind, name, v, fmt.Sprintf(format, args...))
}

func (r *report) finish() error {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsInf(m.Value, 0) {
			// JSON has no infinity; a failed op makes a percentile
			// unboundedly bad.
			r.metrics[name] = metric{Value: math.MaxFloat64, Unit: m.Unit}
		}
	}
	if len(r.invalid) > 0 {
		fmt.Printf("# run INVALID: %s\n", strings.Join(r.invalid, ", "))
	}
	if len(r.problems) > 0 {
		fmt.Printf("# failed checks: %s\n", strings.Join(r.problems, ", "))
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func workPath(c config, name string) string { return filepath.Join(c.workdir, name) }
