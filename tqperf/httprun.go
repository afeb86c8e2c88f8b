package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// setupRuns is how many times a run starts the server to time set-up;
// the last start serves the load.
const setupRuns = 15

// openShare is the part of --seconds spent in the open-loop phase; the
// rest is the closed-loop saturation phase. The timed part runs as
// `cycles` alternations of the two.
const (
	openShare = 0.75
	cycles    = 7
)

// Generator lateness limits (ms). The generator shares the cores with
// the server, so waking a few scheduler slices late is expected; past
// these limits the open loop no longer delivers its stated rate.
const (
	maxLateP99 = 10.0
	maxLate    = 250.0
)

// runHTTP is the untraced run of an HTTP workload.
func runHTTP(cfg config, rep *report) error {
	w := cfg.w
	nproc := workers()
	users := corpus(w, cfg.seed)
	snap := workPath(cfg, "corpus.tqlive")
	if err := writeSnapshot(w, users, snap); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}

	var srv *child
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		walDir := workPath(cfg, "wal")
		if err := os.RemoveAll(walDir); err != nil {
			return err
		}
		c, d, err := startServer(cfg.tqserve, serverArgs(w, snap, walDir, nproc), workPath(cfg, "tqserve.log"))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i == setupRuns-1 {
			srv = c
		} else if err := c.stop(); err != nil {
			return fmt.Errorf("stop tqserve: %w", err)
		}
	}
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d starts to first /healthz 200", len(setups)))

	cl := newClient(srv.base, nproc)
	chk := newChecker(w, users)
	g := newGenerator(w, cfg.seed)
	prod := startProducer(g)
	defer prod.close()

	measured := int(w.rate * cfg.seconds * openShare)
	warm := int(w.rate) // one second
	if w.warmHalf {
		measured /= 2
		warm = measured
	}
	if measured < 100 {
		return fmt.Errorf("%gs is too short for %s: %d timed requests", cfg.seconds, w.name, measured)
	}
	sched := poissonSchedule(cfg.seed, w.rate, warm+measured)
	warmed := openLoop(cl, prod, sched[:warm], nproc, chk.judge)
	// The timed part alternates open-loop and saturation slices, so both
	// phases sample the host across the whole run instead of one of them
	// catching a slow stretch alone.
	var open, sat []outcome
	var windows []float64
	satSlice := time.Duration(cfg.seconds * (1 - openShare) / cycles * float64(time.Second))
	rateWindow := satSlice / 2
	per := (measured + cycles - 1) / cycles
	for c := 0; c < cycles; c++ {
		lo, hi := warm+c*per, warm+(c+1)*per
		if hi > len(sched) {
			hi = len(sched)
		}
		open = append(open, openLoop(cl, prod, rebase(sched, lo, hi), nproc, chk.judge)...)
		part := closedLoop(cl, prod, nproc, satSlice, chk.judge)
		sat = append(sat, part...)
		var done []time.Duration
		for _, o := range part {
			if o.err == nil {
				done = append(done, o.done)
			}
		}
		windows = append(windows, windowCounts(done, satSlice, rateWindow)...)
	}

	var st server.Stats
	if err := cl.get(server.PathStats, &st); err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var probes []outcome
	if w.writeShare > 0 {
		if probes, err = quiesceProbe(cl, chk, cfg); err != nil {
			return err
		}
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return fmt.Errorf("stop tqserve: %w", err)
	}

	var firstErr error
	for _, part := range [][]outcome{warmed, open, sat, probes} {
		rep.attempted += len(part)
		for _, o := range part {
			if o.err != nil {
				rep.failed++
				if firstErr == nil {
					firstErr = o.err
				}
			}
		}
	}
	checked, wrong, firstWrong, err := chk.verifySamples()
	if err != nil {
		return err
	}
	rep.failed += wrong
	rep.check("baseline-answers", wrong == 0, "%d of %d checked answers differ from Baseline%s", wrong, checked, errNote(firstWrong))
	rep.check("ops-succeed", firstErr == nil, "%d of %d ops failed in flight%s", rep.failed-wrong, rep.attempted, errNote(firstErr))

	lat := make([]float64, len(open))
	late := make([]float64, len(open))
	byKind := map[string][]float64{}
	for i, o := range open {
		lat[i], late[i] = o.latency, o.late
		k := o.kind.String()
		if o.kind.isWrite() {
			k = "write"
		}
		byKind[k] = append(byKind[k], o.latency)
	}
	reportLatency(rep, lat, fmt.Sprintf("all ops, open loop at %.0f/s", w.rate))
	for _, k := range []string{"topk", "sv", "write"} {
		if xs := byKind[k]; len(xs) > 0 {
			reportOp(rep, k, xs)
		}
	}

	okSat := 0
	for _, o := range sat {
		if o.err == nil {
			okSat++
		}
	}
	rep.metric("throughput_rps", interquartileMean(windows)/rateWindow.Seconds(), "ops/s",
		fmt.Sprintf("interquartile mean of %d %v windows; %d correct 2xx in %d closed-loop slices, %d clients", len(windows), rateWindow, okSat, cycles, nproc))
	rep.metric("rss_mb", rss, "MiB", "tqserve VmHWM")
	rep.line("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted))

	ls := summarize(late)
	lateMax := late[len(late)-1] // summarize sorted late
	rep.line("generator_late_p99_ms", ls.P99, "ms", fmt.Sprintf("n=%d", ls.N))
	rep.line("generator_late_max_ms", lateMax, "ms", "")
	rep.valid("generator-lateness", ls.P99 <= maxLateP99 && lateMax <= maxLate, "p99 %.2f ms (limit %g), max %.2f ms (limit %g)", ls.P99, maxLateP99, lateMax, maxLate)

	var rej, dl uint64
	for _, e := range st.Endpoints {
		rej += e.Rejected
		dl += e.DeadlineExceeded
	}
	rep.line("server.rejected", float64(rej), "count", "/statsz")
	rep.line("server.deadline_exceeded", float64(dl), "count", "/statsz")
	if rc := st.ResultCache; rc != nil {
		ratio := 0.0
		if rc.Hits+rc.Misses > 0 {
			ratio = float64(rc.Hits) / float64(rc.Hits+rc.Misses)
		}
		rep.line("rescache.hit_ratio", ratio, "ratio", fmt.Sprintf("%d hits, %d misses, %d evictions", rc.Hits, rc.Misses, rc.Evictions))
		if w.pool > 0 {
			rep.valid("cache-hot", ratio >= 0.8, "hit ratio %.4f (need >= 0.8)", ratio)
		} else {
			rep.valid("cache-bypassed", rc.Hits == 0, "hit ratio %.4f (need 0)", ratio)
		}
	}
	var compactions uint64
	deltaMax := 0
	for _, sh := range st.Index.PerShard {
		compactions += sh.Compactions
		deltaMax = max(deltaMax, sh.DeltaLen)
	}
	rep.line("shard.compactions", float64(compactions), "count", "/statsz, all shards")
	rep.line("shard.delta_len", float64(deltaMax), "count", "/statsz, largest shard at the end")
	if w.writeShare > 0 {
		rep.valid("rebuild-cycles", compactions >= 3, "%d rebuild-and-swap cycles (need 3)", compactions)
		if st.WAL != nil {
			rep.line("wal.fsyncs", float64(st.WAL.Fsyncs), "count", fmt.Sprintf("%d records, max fsync %.2f ms", st.WAL.Records, st.WAL.MaxFsyncMillis))
		}
	}
	rep.line("proc.heap_inuse_mb", float64(st.Process.HeapInuseBytes)/(1<<20), "MiB", "/statsz")
	return nil
}

// rebase returns sched[lo:hi] shifted to start where sched[lo-1] ended,
// so a slice of the schedule keeps its first inter-arrival gap.
func rebase(sched []time.Duration, lo, hi int) []time.Duration {
	var base time.Duration
	if lo > 0 {
		base = sched[lo-1]
	}
	out := make([]time.Duration, 0, hi-lo)
	for _, t := range sched[lo:hi] {
		out = append(out, t-base)
	}
	return out
}

// reportLatency records a workload's median latency over all its timed
// ops and prints the p90 and p99 beside it.
func reportLatency(rep *report, xs []float64, what string) {
	s := summarize(xs)
	rep.metric("p50_ms", s.P50, "ms", fmt.Sprintf("%s, n=%d, %d failed", what, s.N, s.Failed))
	rep.line("p90_ms", percentile(xs, 90), "ms", fmt.Sprintf("n=%d", s.N))
	reportTail(rep, "p99_ms", s)
}

// reportOp prints one op type's median and tail latency.
func reportOp(rep *report, kind string, xs []float64) {
	s := summarize(xs)
	rep.line(kind+"_p50_ms", s.P50, "ms", fmt.Sprintf("n=%d, %d failed", s.N, s.Failed))
	reportTail(rep, kind+"_p99_ms", s)
}

// reportTail prints the p99 when 1000 samples stand behind it, else the
// highest percentile with ten samples beyond it, named for what it is.
func reportTail(rep *report, p99name string, s summary) {
	if s.P99OK {
		rep.line(p99name, s.P99, "ms", fmt.Sprintf("n=%d", s.N))
	} else if s.TailP > 0 {
		name := strings.Replace(p99name, "p99", fmt.Sprintf("p%g", s.TailP), 1)
		rep.line(name, s.Tail, "ms", fmt.Sprintf("n=%d: too few samples for p99", s.N))
	}
}

// quiesceProbe asks the server, now idle, a fixed probe set and
// compares each answer with a fresh in-process build of the acked
// final corpus.
func quiesceProbe(cl *client, chk *checker, cfg config) ([]outcome, error) {
	fresh, err := trajcover.NewIndex(chk.finalCorpus(), trajcover.IndexOptions{Ordering: trajcover.ZOrdering})
	if err != nil {
		return nil, err
	}
	q := cfg.w.query()
	var out []outcome
	for _, o := range probeOps(cfg.w, cfg.seed) {
		var want []byte
		if o.kind == opTopK {
			res, err := fresh.TopK(o.facs, cfg.w.k, q)
			if err != nil {
				return nil, err
			}
			want = server.MarshalTopKResponse(res)
		} else {
			vals, err := fresh.ServiceValues(o.facs, q, 1)
			if err != nil {
				return nil, err
			}
			want = server.MarshalValuesResponse(vals)
		}
		out = append(out, send(cl, o, time.Now(), func(o op, r outcome) error {
			if !bytes.Equal(r.body, want) {
				return fmt.Errorf("probe %s: served %q, fresh build %q", o.kind, r.body, want)
			}
			return nil
		}))
	}
	return out, nil
}

func errNote(err error) string {
	if err == nil {
		return ""
	}
	return "; first: " + err.Error()
}
