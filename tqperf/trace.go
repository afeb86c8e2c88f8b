package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// workload is one traffic mix. Every input the served program sees —
// the corpus snapshot and each request body — is generated from the
// run's seed by the functions in this file.
type workload struct {
	name string
	// corpus is the number of NYT stand-in trips served.
	corpus int
	shards int
	// rate is the open-loop Poisson arrival rate in requests per second;
	// 0 marks the in-process coverage loop.
	rate float64
	// routes × stops candidate facilities per request, k results, ψ.
	routes, stops, k int
	psi              float64
	// svShare is the share of reads sent to /v1/servicevalues instead of
	// /v1/topk; writeShare the share of ops that are writes (inserts and
	// deletes 3:1).
	svShare, writeShare float64
	// pool > 0 draws requests Zipf(1.1) from that many distinct bodies;
	// otherwise every request is new. warmHalf leaves the first half of
	// the open-loop trace untimed.
	pool     int
	warmHalf bool
	// wal serves from a WAL-backed index (-wal-sync always); maxDelta is
	// the per-shard pending-write count that triggers a rebuild.
	wal      bool
	maxDelta int
}

// Open-loop rates sit at a quarter or less of what two cores saturate
// at, so the open loop measures latency rather than queueing even when
// a busy host halves the capacity (at 40% of capacity a halving pushed
// cold-scan's median up fivefold). cold-scan and coverage use a
// 10,000-trip corpus to keep a paper-default request near 10 ms;
// restoring either size is a small part of a tqserve start.
var workloads = []workload{
	{name: "cold-scan", corpus: 10000, shards: 2, rate: 30, routes: 128, stops: 32, k: 8, psi: 300, svShare: 0.5},
	{name: "hot-small", corpus: 20000, shards: 2, rate: 400, routes: 8, stops: 8, k: 3, psi: 300, svShare: 0.5, pool: 512, warmHalf: true},
	{name: "write-mix", corpus: 20000, shards: 2, rate: 100, routes: 32, stops: 16, k: 8, psi: 300, writeShare: 0.2, wal: true, maxDelta: 48},
	{name: "coverage", corpus: 10000, routes: 128, stops: 32, k: 8, psi: 300},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w workload) query() trajcover.Query {
	return trajcover.Query{Scenario: trajcover.Binary, Psi: w.psi}
}

type opKind int

const (
	opTopK opKind = iota
	opSV
	opInsert
	opDelete
	opMaxCov
)

var opNames = [...]string{"topk", "sv", "insert", "delete", "maxcov"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) path() string {
	switch k {
	case opTopK:
		return server.PathTopK
	case opSV:
		return server.PathServiceValues
	case opInsert:
		return server.PathInsert
	case opDelete:
		return server.PathDelete
	}
	return ""
}

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// op is one request of a trace.
type op struct {
	i    int
	kind opKind
	body []byte
	// facs are the request's candidate facilities (reads and maxcov).
	facs []*trajcover.Facility
	// key is the pool entry of a pooled request, -1 otherwise.
	key int
	// id is the trajectory an insert adds or a delete removes; traj is
	// the inserted trajectory.
	id   trajcover.ID
	traj *trajcover.Trajectory
}

// Salts separate the random streams drawn from one seed.
const (
	saltCorpus = iota + 1
	saltSchedule
	saltOps
	saltRoutes
	saltPool
	saltInsert
	saltDelete
	saltKeys
	saltProbe
)

// mix derives an independent stream seed from the run seed, a salt and
// an index (splitmix64 finalizer).
func mix(seed int64, salt, i uint64) int64 {
	z := uint64(seed) ^ salt*0x9e3779b97f4a7c15 ^ (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// corpus is the served trip set for a workload and seed.
func corpus(w workload, seed int64) []*trajcover.Trajectory {
	return trajcover.TaxiTrips(trajcover.NewYorkCity(), w.corpus, mix(seed, saltCorpus, 0))
}

// poissonSchedule returns n send offsets with exponential gaps at rate
// per second.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(mix(seed, saltSchedule, 0)))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// generator yields a workload's ops in trace order. Op i depends only on
// the seed and i, so a trace replays identically; next is not safe for
// concurrent use.
type generator struct {
	w      workload
	seed   int64
	city   *trajcover.City
	rng    *rand.Rand
	i      int
	pool   []op
	keys   *rand.Zipf
	ins    int
	del    int
	delIDs []int
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{
		w:    w,
		seed: seed,
		city: trajcover.NewYorkCity(),
		rng:  rand.New(rand.NewSource(mix(seed, saltOps, 0))),
	}
	if w.pool > 0 {
		g.pool = make([]op, w.pool)
		for j := range g.pool {
			kind := opTopK
			if j%2 == 1 && w.svShare > 0 {
				kind = opSV
			}
			g.pool[j] = g.read(kind, g.routeSet(saltPool, j))
			g.pool[j].key = j
		}
		g.keys = rand.NewZipf(rand.New(rand.NewSource(mix(seed, saltKeys, 0))), 1.1, 1, uint64(w.pool-1))
	}
	return g
}

func (g *generator) routeSet(salt uint64, i int) []*trajcover.Facility {
	return trajcover.BusRoutes(g.city, g.w.routes, g.w.stops, mix(g.seed, salt, uint64(i)))
}

// read builds a query op over facs.
func (g *generator) read(kind opKind, facs []*trajcover.Facility) op {
	req := server.QueryRequest{Facilities: make([]server.FacilityJSON, len(facs)), Psi: g.w.psi}
	if kind == opTopK {
		req.K = g.w.k
	}
	for i, f := range facs {
		stops := make([][2]float64, len(f.Stops))
		for j, p := range f.Stops {
			stops[j] = [2]float64{p.X, p.Y}
		}
		req.Facilities[i] = server.FacilityJSON{ID: uint32(f.ID), Stops: stops}
	}
	return op{kind: kind, body: mustJSON(req), facs: facs, key: -1}
}

func (g *generator) next() op {
	i := g.i
	g.i++
	var o op
	switch {
	case g.w.rate == 0:
		o = op{kind: opMaxCov, facs: g.routeSet(saltRoutes, i), key: -1}
	case g.pool != nil:
		o = g.pool[g.keys.Uint64()]
	case g.rng.Float64() < g.w.writeShare:
		o = g.write()
	default:
		kind := opTopK
		if g.rng.Float64() < g.w.svShare {
			kind = opSV
		}
		o = g.read(kind, g.routeSet(saltRoutes, i))
	}
	o.i = i
	return o
}

// write yields the next write: an insert of a fresh trip three times in
// four, else a delete of a trip the corpus holds (each deleted once).
func (g *generator) write() op {
	if g.rng.Intn(4) < 3 {
		t := trajcover.TaxiTrips(g.city, 1, mix(g.seed, saltInsert, uint64(g.ins)))[0]
		id := trajcover.ID(g.w.corpus + g.ins)
		g.ins++
		u, err := trajcover.NewTrajectory(id, t.Points)
		if err != nil {
			panic(err) // TaxiTrips yields valid trips
		}
		pts := make([][2]float64, len(u.Points))
		for j, p := range u.Points {
			pts[j] = [2]float64{p.X, p.Y}
		}
		return op{kind: opInsert, body: mustJSON(server.InsertRequest{ID: uint32(id), Points: pts}), id: id, traj: u, key: -1}
	}
	if g.delIDs == nil {
		g.delIDs = rand.New(rand.NewSource(mix(g.seed, saltDelete, 0))).Perm(g.w.corpus)
	}
	id := trajcover.ID(g.delIDs[g.del])
	g.del++
	return op{kind: opDelete, body: mustJSON(server.DeleteRequest{ID: uint32(id)}), id: id, key: -1}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request shapes with finite numbers
	}
	return b
}
