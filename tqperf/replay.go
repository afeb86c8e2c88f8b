package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/server"
)

// Replay sizing: at least minReplay requests run whatever the time
// budget, at most maxReplay; MaxCoverage runs on the first maxcovCalls
// reads, so its users-served total is a fixed function of the seed.
const (
	minReplay   = 16
	maxReplay   = 4000
	maxcovCalls = 8
	// writeProbe is how many writes a workload without writes replays
	// so the write path is measured on every workload.
	writeProbe = 64
)

// layers holds one in-process instance of every boundary the replay
// times, all over the same seeded corpus.
type layers struct {
	live    *trajcover.LiveShardedIndex // what tqserve serves, no WAL
	walLive *trajcover.LiveShardedIndex // the same, WAL-backed, kept in lockstep
	sharded *trajcover.FrozenShardedIndex
	frozen  *trajcover.FrozenIndex
	ptr     *trajcover.Index
	plain   *server.Server // result cache off
	cached  *server.Server // result cache on
	http    *client
	hs      *http.Server
}

func buildLayers(cfg config, users []*trajcover.Trajectory) (*layers, error) {
	w := cfg.w
	opts := trajcover.IndexOptions{Ordering: trajcover.ZOrdering}
	pol := trajcover.LivePolicy{MaxDelta: w.maxDelta}
	shards := max(w.shards, 2)
	liveOpts := trajcover.LiveShardOptions{Shards: shards, Index: opts, Policy: pol}
	l := &layers{}
	var err error
	if l.live, err = trajcover.NewLiveShardedIndex(users, liveOpts); err != nil {
		return nil, err
	}
	walDir := workPath(cfg, "replay-wal")
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	l.walLive, err = trajcover.OpenLiveShardedIndex(trajcover.WALOptions{Dir: walDir, Sync: trajcover.WALSyncAlways}, pol,
		func() (*trajcover.LiveShardedIndex, error) { return trajcover.NewLiveShardedIndex(users, liveOpts) })
	if err != nil {
		return nil, err
	}
	sh, err := trajcover.NewShardedIndex(users, trajcover.ShardOptions{Shards: shards, Index: opts})
	if err != nil {
		return nil, err
	}
	if l.sharded, err = sh.Freeze(); err != nil {
		return nil, err
	}
	if l.frozen, err = trajcover.NewFrozenIndex(users, opts); err != nil {
		return nil, err
	}
	if l.ptr, err = trajcover.NewIndex(users, opts); err != nil {
		return nil, err
	}
	scfg := server.Config{Workers: workers(), DefaultTimeout: 30 * time.Second}
	l.plain = server.New(l.live, scfg)
	scfg.ResultCacheBytes = 64 << 20
	l.cached = server.New(l.live, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.hs = &http.Server{Handler: l.plain.Handler()}
	go l.hs.Serve(ln)
	l.http = newClient("http://"+ln.Addr().String(), 1)
	return l, nil
}

func (l *layers) close() {
	l.hs.Close()
	l.plain.Close()
	l.cached.Close()
	l.walLive.Close()
	l.live.Close()
}

// serveInProcess calls the handler directly: the server layer without
// the socket.
func serveInProcess(s *server.Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// replayer walks a trace through the layers one request at a time.
type replayer struct {
	cfg  config
	l    *layers
	rec  *recorder
	q    trajcover.Query
	n    int // replayed requests
	errs []error
	// readKind is each recorded read's endpoint, by request number.
	readKind map[int]opKind
	// traceHits and traceMisses count the cached server's answers to the
	// trace itself, leaving out the repeats the replay adds to time a
	// hit on every request.
	traceHits, traceMisses int
	// wallOn and wallOff are request times taken outside the recorder,
	// split by whether spans were being recorded.
	wallOn, wallOff []float64
	counts          map[string][]float64
	usersServed     int
	maxcovDone      int
	deltaMax        int
	writes          int
}

func (r *replayer) fail(err error) { r.errs = append(r.errs, err) }

// read replays one query through every read boundary, outermost first.
func (r *replayer) read(o op) {
	n := r.n
	r.n++
	r.rec.on = n%2 == 0
	if r.rec.on {
		r.readKind[n] = o.kind
	}
	ctx := context.Background()
	k := r.cfg.w.k
	path := o.kind.path()
	var httpBody, srvBody, encBody, liveTopK, liveSV []byte
	var facs []*trajcover.Facility
	q := r.q

	t0 := time.Now()
	root := r.rec.begin(n, -1, "request")
	r.rec.call(n, root, "http", func() {
		status, body, err := r.l.http.post(path, o.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("loopback %s: HTTP %d", path, status)
		}
		if err != nil {
			r.fail(err)
		}
		httpBody = body
	})
	r.rec.call(n, root, "server", func() { _, srvBody = serveInProcess(r.l.plain, path, o.body) })
	r.rec.call(n, root, "decode", func() {
		var err error
		if _, facs, q, err = server.DecodeQueryRequest(o.body, o.kind == opTopK); err != nil {
			r.fail(err)
		}
	})
	var topk []trajcover.Ranked
	var vals []float64
	r.rec.call(n, root, "live.topk", func() {
		var err error
		if topk, err = r.l.live.TopKCtx(ctx, facs, k, q); err != nil {
			r.fail(err)
		}
	})
	r.rec.call(n, root, "live.sv", func() {
		var err error
		if vals, err = r.l.live.ServiceValuesCtx(ctx, facs, q, 1); err != nil {
			r.fail(err)
		}
	})
	r.rec.call(n, root, "encode", func() {
		if o.kind == opTopK {
			encBody = server.MarshalTopKResponse(topk)
		} else {
			encBody = server.MarshalValuesResponse(vals)
		}
	})
	liveTopK, liveSV = server.MarshalTopKResponse(topk), server.MarshalValuesResponse(vals)
	var shTopK, frTopK []trajcover.Ranked
	var frSV []float64
	r.rec.call(n, root, "sharded.topk", func() {
		var err error
		if shTopK, err = r.l.sharded.TopK(facs, k, q); err != nil {
			r.fail(err)
		}
	})
	r.rec.call(n, root, "frozen.topk", func() {
		var err error
		if frTopK, err = r.l.frozen.TopK(facs, k, q); err != nil {
			r.fail(err)
		}
	})
	r.rec.call(n, root, "frozen.sv", func() {
		var err error
		if frSV, err = r.l.frozen.ServiceValues(facs, q, 1); err != nil {
			r.fail(err)
		}
	})
	var cacheBody []byte
	if r.cachedCall(n, root, path, o.body, &cacheBody) {
		r.traceHits++
	} else {
		r.traceMisses++
		// Repeat the request so a hit is timed on every workload, also
		// where the trace never repeats. (A write or a background swap
		// in between can still turn the repeat into a miss.)
		r.cachedCall(n, root, path, o.body, &cacheBody)
	}
	r.rec.end(root)
	wall := ms(time.Since(t0))
	if r.rec.on {
		r.wallOn = append(r.wallOn, wall)
	} else {
		r.wallOff = append(r.wallOff, wall)
	}

	// Every layer must give the same answer bytes. The frozen copies
	// hold the initial corpus, so they are compared only while no write
	// has been applied.
	for _, b := range [][]byte{httpBody, srvBody, cacheBody} {
		if !bytes.Equal(b, encBody) {
			r.fail(fmt.Errorf("request %d (%s): layers disagree: %q vs live %q", n, o.kind, b, encBody))
			break
		}
	}
	if r.writes == 0 {
		if !bytes.Equal(server.MarshalTopKResponse(shTopK), liveTopK) || !bytes.Equal(server.MarshalTopKResponse(frTopK), liveTopK) ||
			!bytes.Equal(server.MarshalValuesResponse(frSV), liveSV) {
			r.fail(fmt.Errorf("request %d: frozen/sharded answers differ from live", n))
		}
	}

	_, m, err := r.l.frozen.TopKWithMetrics(facs, k, q)
	if err != nil {
		r.fail(err)
	}
	r.counts["nodes"] = append(r.counts["nodes"], float64(m.NodesVisited))
	r.counts["entries"] = append(r.counts["entries"], float64(m.EntriesScored))
	r.counts["relax"] = append(r.counts["relax"], float64(m.Relaxations))
	r.counts["relax_ratio"] = append(r.counts["relax_ratio"], float64(m.Relaxations)/float64(len(facs)))

	if r.maxcovDone < maxcovCalls {
		r.maxcovDone++
		r.rec.on = true
		mroot := r.rec.begin(n, -1, "request.maxcov")
		r.rec.call(n, mroot, "maxcov.prune", func() {
			if _, err := r.l.ptr.TopK(facs, maxcov.DefaultCandidateSize(k, len(facs)), q); err != nil {
				r.fail(err)
			}
		})
		r.rec.call(n, mroot, "maxcov", func() {
			res, err := r.l.ptr.MaxCoverage(facs, k, q, trajcover.CoverageOptions{})
			if err != nil {
				r.fail(err)
			}
			r.usersServed += res.UsersServed
		})
		r.rec.end(mroot)
	}
}

// cachedCall sends one request to the cached server, records it as a
// "cache.hit" or "cache.miss" span by what the cache counted, and
// reports whether it hit.
func (r *replayer) cachedCall(n, root int, path string, body []byte, out *[]byte) bool {
	before := r.l.cached.Stats().ResultCache.Hits
	id := r.rec.begin(n, root, "cache.miss")
	_, *out = serveInProcess(r.l.cached, path, body)
	r.rec.end(id)
	hit := r.l.cached.Stats().ResultCache.Hits > before
	if hit && id >= 0 {
		r.rec.spans[id].Name = "cache.hit"
	}
	return hit
}

// write applies one write to the WAL-backed and the WAL-less index.
func (r *replayer) write(o op) {
	n := r.n
	r.n++
	r.writes++
	r.rec.on = true
	root := r.rec.begin(n, -1, "request.write")
	for _, target := range []struct {
		name string
		idx  *trajcover.LiveShardedIndex
	}{{"wal", r.l.walLive}, {"live", r.l.live}} {
		if o.kind == opInsert {
			r.rec.call(n, root, target.name+".insert", func() {
				if err := target.idx.Insert(o.traj); err != nil {
					r.fail(fmt.Errorf("%s insert %d: %w", target.name, o.id, err))
				}
			})
			continue
		}
		r.rec.call(n, root, target.name+".delete", func() {
			found, err := target.idx.Delete(o.id)
			if err == nil && !found {
				err = fmt.Errorf("existing trajectory not found")
			}
			if err != nil {
				r.fail(fmt.Errorf("%s delete %d: %w", target.name, o.id, err))
			}
		})
	}
	r.rec.end(root)
	for _, st := range r.l.live.Stats() {
		r.deltaMax = max(r.deltaMax, st.DeltaLen)
	}
}

// runReplay is the traced run: a prefix of the workload's seeded trace,
// replayed one request at a time through each layer boundary in turn.
func runReplay(cfg config, rep *report) error {
	w := cfg.w
	users := corpus(w, cfg.seed)
	l, err := buildLayers(cfg, users)
	if err != nil {
		return err
	}
	defer l.close()
	r := &replayer{
		cfg: cfg, l: l, rec: newRecorder(), q: w.query(),
		readKind: map[int]opKind{}, counts: map[string][]float64{},
	}
	walBefore, _ := l.walLive.WALStats()

	// failed counts replayed requests with at least one error.
	failed := 0
	replay := func(step func(op), o op) {
		before := len(r.errs)
		step(o)
		if len(r.errs) > before {
			failed++
		}
	}
	g := newGenerator(w, cfg.seed)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for r.n < maxReplay && (r.n < minReplay || time.Since(start) < budget) {
		o := g.next()
		switch {
		case o.kind.isWrite():
			replay(r.write, o)
		case o.kind == opMaxCov:
			replay(r.read, g.read(opTopK, o.facs))
		default:
			replay(r.read, o)
		}
	}
	if r.writes == 0 {
		pg := newGenerator(w, cfg.seed)
		for i := 0; i < writeProbe; i++ {
			replay(r.write, pg.write())
		}
	}
	walAfter, _ := l.walLive.WALStats()

	rep.attempted = r.n
	rep.failed = failed
	var first error
	if len(r.errs) > 0 {
		first = r.errs[0]
	}
	rep.check("layers-agree", len(r.errs) == 0, "%d errors over %d replayed requests%s", len(r.errs), r.n, errNote(first))

	rec := r.rec
	d := rec.durations
	note := func(xs []float64) string { return fmt.Sprintf("median, n=%d", len(xs)) }
	var liveMatched []float64
	for _, s := range rec.spans {
		if kind, ok := r.readKind[s.Req]; ok && s.Name == "live."+kind.String() {
			liveMatched = append(liveMatched, ms(s.dur()))
		}
	}

	rep.metric("http.self_ms", marginal(d("http"), d("server")), "ms", note(d("http"))+", loopback POST minus ServeHTTP")
	rep.metric("server.decode_ms", median(d("decode")), "ms", note(d("decode")))
	rep.metric("server.encode_ms", median(d("encode")), "ms", note(d("encode")))
	rep.metric("server.self_ms", marginal(d("server"), d("decode"), liveMatched, d("encode")), "ms", note(d("server"))+", ServeHTTP minus decode, live call, encode")

	var rej, dl uint64
	for _, s := range []*server.Server{l.plain, l.cached} {
		for _, e := range s.Stats().Endpoints {
			rej += e.Rejected
			dl += e.DeadlineExceeded
		}
	}
	rep.metric("server.rejected", float64(rej), "count", "/statsz endpoints")
	rep.metric("server.deadline_exceeded", float64(dl), "count", "/statsz endpoints")

	rc := l.cached.Stats().ResultCache
	ratio := 0.0
	if r.traceHits+r.traceMisses > 0 {
		ratio = float64(r.traceHits) / float64(r.traceHits+r.traceMisses)
	}
	rep.metric("rescache.hit_ratio", ratio, "ratio", fmt.Sprintf("%d hits / %d lookups in trace order", r.traceHits, r.traceHits+r.traceMisses))
	rep.metric("rescache.hits", float64(r.traceHits), "count", "")
	rep.metric("rescache.misses", float64(r.traceMisses), "count", "")
	rep.metric("rescache.evictions", float64(rc.Evictions), "count", "")
	rep.metric("rescache.hit_ms", median(d("cache.hit")), "ms", note(d("cache.hit"))+", ServeHTTP answered from the cache")
	rep.metric("rescache.miss_ms", median(d("cache.miss")), "ms", note(d("cache.miss"))+", ServeHTTP the cache missed")

	rep.metric("live.topk_ms", median(d("live.topk")), "ms", note(d("live.topk")))
	rep.metric("live.sv_ms", median(d("live.sv")), "ms", note(d("live.sv")))
	rep.metric("shard.overlay_ms", marginal(d("live.topk"), d("sharded.topk")), "ms", "live minus frozen sharded, topk")
	rep.metric("shard.merge_ms", marginal(d("sharded.topk"), d("frozen.topk")), "ms", "2-shard minus 1-shard frozen, topk")
	var compactions uint64
	for _, s := range l.live.Stats() {
		compactions += s.Compactions
	}
	rep.metric("shard.delta_len_max", float64(r.deltaMax), "count", fmt.Sprintf("over %d writes", r.writes))
	rep.metric("shard.compactions", float64(compactions), "count", "")

	rep.metric("live.insert_ms", median(d("live.insert")), "ms", note(d("live.insert"))+", no WAL")
	rep.metric("live.delete_ms", median(d("live.delete")), "ms", note(d("live.delete"))+", no WAL")
	rep.metric("wal.append_ms", marginal(d("wal.insert"), d("live.insert")), "ms", "WAL-backed minus WAL-less insert, sync always")
	recs := walAfter.Records - walBefore.Records
	rep.metric("wal.fsyncs_per_write", float64(walAfter.Fsyncs-walBefore.Fsyncs)/float64(r.writes), "ratio", fmt.Sprintf("%d fsyncs / %d writes", walAfter.Fsyncs-walBefore.Fsyncs, r.writes))
	rep.metric("wal.bytes_per_record", float64(walAfter.Bytes-walBefore.Bytes)/float64(recs), "B", fmt.Sprintf("%d bytes / %d records", walAfter.Bytes-walBefore.Bytes, recs))
	rep.metric("wal.max_fsync_ms", ms(walAfter.MaxFsync), "ms", "")

	rep.metric("query.topk_ms", median(d("frozen.topk")), "ms", note(d("frozen.topk"))+", 1-shard frozen")
	rep.metric("query.sv_ms", median(d("frozen.sv")), "ms", note(d("frozen.sv"))+", 1-shard frozen")
	rep.metric("query.nodes_visited", median(r.counts["nodes"]), "count", note(r.counts["nodes"]))
	rep.metric("query.entries_scored", median(r.counts["entries"]), "count", note(r.counts["entries"]))
	rep.metric("query.relaxations", median(r.counts["relax"]), "count", note(r.counts["relax"]))
	rep.metric("query.relax_ratio", median(r.counts["relax_ratio"]), "ratio", "relaxations / facilities")

	rep.metric("maxcov.prune_ms", median(d("maxcov.prune")), "ms", note(d("maxcov.prune"))+", Index.TopK at k'")
	rep.metric("maxcov.self_ms", marginal(d("maxcov"), d("maxcov.prune")), "ms", "MaxCoverage minus prune")
	rep.metric("maxcov.users_served", float64(r.usersServed), "count", fmt.Sprintf("summed over the first %d reads", r.maxcovDone))
	rep.metric("proc.heap_inuse_mb", float64(l.plain.Stats().Process.HeapInuseBytes)/(1<<20), "MiB", "/statsz process")
	rep.metric("trace.overhead_frac", marginal(r.wallOn, r.wallOff)/median(append([]float64(nil), r.wallOff...)), "ratio",
		fmt.Sprintf("request time with spans on (n=%d) vs off (n=%d)", len(r.wallOn), len(r.wallOff)))
	rep.line("replay.self_ms", median(rec.selfTimes("request")), "ms", "replay glue between boundary calls")

	path := workPath(cfg, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.spans), path)
	return nil
}
