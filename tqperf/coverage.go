package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
)

// coverageSetups is how many index builds time the coverage set-up;
// qualityOps is the trace prefix whose users served are summed, a fixed
// set so the sum repeats exactly for a seed.
const (
	coverageSetups = 15
	qualityOps     = 512
)

// coverageCallers is one: a single caller leaves the second core to the
// garbage collector and the host, so the figures track MaxCoverage
// rather than two callers contending for both cores.
const coverageCallers = 1

// runCoverage is the untraced run of the coverage workload: a closed
// loop of Index.MaxCoverage (the paper's two-step greedy) on unique
// route sets.
func runCoverage(cfg config, rep *report) error {
	w := cfg.w
	users := corpus(w, cfg.seed)
	var idx *trajcover.Index
	setups := make([]float64, 0, coverageSetups)
	for i := 0; i < coverageSetups; i++ {
		t0 := time.Now()
		x, err := trajcover.NewIndex(users, trajcover.IndexOptions{Ordering: trajcover.ZOrdering})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		idx = x
		// Collect the previous build now so the peak RSS reflects one
		// index, not however many builds the GC let pile up.
		runtime.GC()
	}
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d NewIndex builds", len(setups)))

	q := w.query()
	g := newGenerator(w, cfg.seed)
	var gmu sync.Mutex
	type call struct {
		o    op
		res  trajcover.CoverageResult
		lat  float64
		done time.Duration
	}
	loop := func(d time.Duration) ([]call, time.Duration) {
		var mu sync.Mutex
		var calls []call
		var wg sync.WaitGroup
		start := time.Now()
		end := start.Add(d)
		for c := 0; c < coverageCallers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []call
				for time.Now().Before(end) {
					gmu.Lock()
					o := g.next()
					gmu.Unlock()
					t0 := time.Now()
					res, err := idx.MaxCoverage(o.facs, w.k, q, trajcover.CoverageOptions{})
					lat := ms(time.Since(t0))
					if err != nil || len(res.Facilities) != w.k {
						lat = math.Inf(1)
					}
					if o.i%sampleEvery != 0 {
						// Only sampled calls are checked: keep the peak
						// RSS independent of how many calls a run makes.
						o.facs, res.Facilities = nil, nil
					}
					mine = append(mine, call{o: o, res: res, lat: lat, done: time.Since(start)})
				}
				mu.Lock()
				calls = append(calls, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return calls, time.Since(start)
	}
	warm, _ := loop(time.Second)
	calls, dur := loop(time.Duration(cfg.seconds * float64(time.Second)))

	bl, err := trajcover.NewBaseline(users, trajcover.TwoPoint)
	if err != nil {
		return err
	}
	rep.attempted = len(warm) + len(calls)
	lat := make([]float64, len(calls))
	var okDone []time.Duration
	served, servedOps := 0, 0
	inFlight, checked, wrong := 0, 0, 0
	var firstWrong error
	for _, c := range warm {
		if math.IsInf(c.lat, 1) {
			inFlight++
		}
	}
	for i, c := range calls {
		lat[i] = c.lat
		if math.IsInf(c.lat, 1) {
			inFlight++
			continue
		}
		if c.o.i < qualityOps {
			served += c.res.UsersServed
			servedOps++
		}
		if c.o.i%sampleEvery == 0 {
			want, err := maxcovOracle(bl, c.o.facs, w.k, q)
			if err != nil {
				return err
			}
			checked++
			if !sameCoverage(c.res, want) {
				wrong++
				lat[i] = math.Inf(1)
				if firstWrong == nil {
					firstWrong = fmt.Errorf("op %d: value %v users %d, Baseline value %v users %d", c.o.i, c.res.Value, c.res.UsersServed, want.Value, want.UsersServed)
				}
				continue
			}
		}
		okDone = append(okDone, c.done)
	}
	rep.failed = inFlight + wrong
	rep.check("baseline-answers", wrong == 0, "%d of %d sampled answers differ from the Baseline two-step%s", wrong, checked, errNote(firstWrong))
	rep.check("ops-succeed", inFlight == 0, "%d of %d ops failed in flight", inFlight, rep.attempted)

	reportLatency(rep, lat, fmt.Sprintf("MaxCoverage, closed loop, %d caller", coverageCallers))
	reportOp(rep, "maxcov", lat)
	rep.metric("throughput_rps", interquartileMean(windowCounts(okDone, dur, time.Second)), "ops/s", fmt.Sprintf("interquartile mean of 1s windows; %d calls in %.1fs", len(calls), dur.Seconds()))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rep.metric("rss_mb", rss, "MiB", "benchmark process VmHWM")
	rep.line("maxcov_users_served", float64(served), "users", fmt.Sprintf("summed over the first %d queries of the trace", servedOps))
	rep.line("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted))
	return nil
}
