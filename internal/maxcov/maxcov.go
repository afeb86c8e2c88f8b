// Package maxcov implements MaxkCovRST: choosing the size-k facility
// subset maximizing the combined (AGG) service value. The paper proves
// the objective is non-submodular and NP-hard and answers it with a
// two-step greedy approximation; this package provides:
//
//   - Greedy: the straightforward greedy over all facilities (the paper's
//     G-BL / G-TQ building block).
//   - TwoStepGreedy: the paper's solution — first prune to the k' highest
//     individually-serving facilities with the kMaxRRST engine, then run
//     greedy on the pruned set (G-TQ(B), G-TQ(Z)).
//   - Genetic: the Gn-TQ(Z) comparison point, a genetic algorithm over
//     k-subsets.
//   - Exact: exhaustive subset enumeration, the approximation-ratio
//     reference for Figure 11.
//   - Anneal: simulated annealing over k-subsets, another offline
//     comparison point.
//
// Every solver first computes each candidate facility's coverage and
// keeps it in one of two representations, chosen by the query. Under
// the Binary scenario on a non-Segmented variant, a user is served
// exactly when some chosen facility covers its source and some chosen
// facility covers its destination, so each facility is kept as two
// bitsets over the touched users and subset values are popcounts of
// ORed bitsets. Every other query (PointCount, Length, or a Segmented
// variant) keeps each facility's per-user point masks from the query
// package and scores the union of masks. Facility IDs must be distinct.
package maxcov

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// CoverageSource produces per-facility coverage masks. Both the TQ-tree
// engine and the baseline satisfy it (see EngineSource / BaselineSource).
type CoverageSource interface {
	// Coverage returns which points of which users the facility covers.
	Coverage(f *trajectory.Facility, p query.Params) (service.Coverage, error)
	// Users is the user set coverage is computed against.
	Users() *trajectory.Set
	// Variant selects the objective translation for mask values.
	Variant() tqtree.Variant
}

// EngineSource adapts a kMaxRRST engine into a CoverageSource.
type EngineSource struct {
	Engine *query.Engine
}

// Coverage implements CoverageSource.
func (s EngineSource) Coverage(f *trajectory.Facility, p query.Params) (service.Coverage, error) {
	cov, _, err := s.Engine.Coverage(f, p)
	return cov, err
}

// Users implements CoverageSource.
func (s EngineSource) Users() *trajectory.Set { return s.Engine.Users() }

// Variant implements CoverageSource.
func (s EngineSource) Variant() tqtree.Variant { return s.Engine.Tree().Variant() }

// BaselineSource adapts the point-quadtree baseline into a CoverageSource.
type BaselineSource struct {
	Baseline *query.Baseline
}

// Coverage implements CoverageSource.
func (s BaselineSource) Coverage(f *trajectory.Facility, p query.Params) (service.Coverage, error) {
	return s.Baseline.Coverage(f, p)
}

// Users implements CoverageSource.
func (s BaselineSource) Users() *trajectory.Set { return s.Baseline.Users() }

// Variant implements CoverageSource.
func (s BaselineSource) Variant() tqtree.Variant { return s.Baseline.Variant() }

// Result is a MaxkCovRST answer.
type Result struct {
	// Facilities is the chosen subset, in selection order for greedy
	// solvers.
	Facilities []*trajectory.Facility
	// Value is the combined service value SO(U, F').
	Value float64
	// UsersServed counts users with positive combined service — the
	// quality metric of the paper's Figure 10(b)/(d).
	UsersServed int
}

// covCache holds the coverage of a candidate facility set in one of two
// representations, chosen by the query.
//
// The general path keeps each facility's per-user point masks; a
// subset's value is the objective of the unioned masks.
//
// The binary path (Binary scenario, non-Segmented variant) keeps only two
// bitsets per facility over a dense index of touched users: the users
// whose source it covers and the users whose destination it covers. A
// user is served by a subset exactly when its source bit is in the OR of
// the subset's source bitsets and its destination bit in the OR of their
// destination bitsets, so SO(U, F') = popcount(OR(src) & OR(dst)). Masks
// are folded into the bitsets as they are computed and never retained.
type covCache struct {
	src  CoverageSource
	p    query.Params
	covs map[trajectory.ID]service.Coverage // general path
	bin  *binPack                           // binary path
}

// binPack is the binary path's state. Facility bitsets grow with the
// dense user index, so an earlier facility's bitsets may be shorter than
// a later one's; missing words are zero.
type binPack struct {
	users  map[trajectory.ID]binUser
	fac    map[trajectory.ID]facBits
	srcBuf []uint64 // subset-evaluation scratch, see covCache.evaluate
	dstBuf []uint64
}

// binUser is a touched user's dense bit and last point index.
type binUser struct{ bit, last int32 }

type facBits struct{ src, dst []uint64 }

func newCovCache(src CoverageSource, facilities []*trajectory.Facility, p query.Params) (*covCache, error) {
	if err := checkDistinctIDs(facilities); err != nil {
		return nil, err
	}
	c := &covCache{src: src, p: p}
	if p.Scenario == service.Binary && src.Variant() != tqtree.Segmented {
		c.bin = &binPack{users: map[trajectory.ID]binUser{}, fac: make(map[trajectory.ID]facBits, len(facilities))}
	} else {
		c.covs = make(map[trajectory.ID]service.Coverage, len(facilities))
	}
	for _, f := range facilities {
		cov, err := src.Coverage(f, p)
		if err != nil {
			return nil, fmt.Errorf("maxcov: coverage of facility %d: %w", f.ID, err)
		}
		if c.bin != nil {
			c.bin.fold(f.ID, cov, src.Users())
		} else {
			c.covs[f.ID] = cov
		}
	}
	if c.bin != nil {
		c.bin.srcBuf = make([]uint64, c.bin.words())
		c.bin.dstBuf = make([]uint64, c.bin.words())
	}
	return c, nil
}

// checkDistinctIDs rejects facility sets in which two facilities share an
// ID: coverage is keyed by ID, so they would silently share one coverage.
func checkDistinctIDs(facilities []*trajectory.Facility) error {
	seen := make(map[trajectory.ID]struct{}, len(facilities))
	for _, f := range facilities {
		if _, dup := seen[f.ID]; dup {
			return fmt.Errorf("maxcov: duplicate facility id %d", f.ID)
		}
		seen[f.ID] = struct{}{}
	}
	return nil
}

// fold records one facility's coverage as its source/destination bitsets.
func (b *binPack) fold(id trajectory.ID, cov service.Coverage, users *trajectory.Set) {
	var fb facBits
	for uid, m := range cov {
		bu, ok := b.users[uid]
		if !ok {
			u := users.ByID(uid)
			if u == nil || !m.Get(0) && !m.Get(u.Len()-1) {
				continue // no bit to set yet
			}
			bu = binUser{bit: int32(len(b.users)), last: int32(u.Len() - 1)}
			b.users[uid] = bu
		}
		w, bit := int(bu.bit/64), uint64(1)<<(uint(bu.bit)%64)
		for len(fb.src) <= w {
			fb.src = append(fb.src, 0)
			fb.dst = append(fb.dst, 0)
		}
		if m.Get(0) {
			fb.src[w] |= bit
		}
		if m.Get(int(bu.last)) {
			fb.dst[w] |= bit
		}
	}
	b.fac[id] = fb
}

// words is the length of the longest facility bitset.
func (b *binPack) words() int { return (len(b.users) + 63) / 64 }

// evaluate returns SO(U, F') for a subset and the number of users it
// serves with positive value. The binary path reuses the cache's
// buffers, so a cache is not safe for concurrent use.
func (c *covCache) evaluate(subset []*trajectory.Facility) (value float64, served int) {
	if b := c.bin; b != nil {
		clear(b.srcBuf)
		clear(b.dstBuf)
		for _, f := range subset {
			fb := b.fac[f.ID]
			for i, w := range fb.src {
				b.srcBuf[i] |= w
				b.dstBuf[i] |= fb.dst[i]
			}
		}
		for i, w := range b.srcBuf {
			served += bits.OnesCount64(w & b.dstBuf[i])
		}
		return float64(served), served
	}
	merged := service.Coverage{}
	for _, f := range subset {
		merged.Merge(c.covs[f.ID])
	}
	users := c.src.Users()
	for id, m := range merged {
		if u := users.ByID(id); u != nil {
			if v := c.valueOf(u, m); v > 0 {
				value += v
				served++
			}
		}
	}
	return value, served
}

// genesEvaluator returns evaluate's value for a k-subset given as indexes
// into facilities, the encoding Genetic and Anneal search over.
func (c *covCache) genesEvaluator(facilities []*trajectory.Facility, k int) func(genes []int) float64 {
	subset := make([]*trajectory.Facility, k)
	return func(genes []int) float64 {
		for i, g := range genes {
			subset[i] = facilities[g]
		}
		v, _ := c.evaluate(subset)
		return v
	}
}

// valueOf returns the objective value of a single user's mask.
func (c *covCache) valueOf(u *trajectory.Trajectory, m service.Mask) float64 {
	return query.ObjectiveFromMask(c.src.Variant(), c.p.Scenario, u, m)
}

// greedyState is the greedy's running chosen set.
type greedyState interface {
	// marginal computes SO(U, chosen ∪ {f}) − SO(U, chosen) without
	// mutating the state.
	marginal(f *trajectory.Facility) float64
	// add commits f to the chosen set and returns SO(U, chosen).
	add(f *trajectory.Facility) float64
}

func newGreedyState(cache *covCache) greedyState {
	if b := cache.bin; b != nil {
		return &bitGreedy{bin: b, src: make([]uint64, b.words()), dst: make([]uint64, b.words())}
	}
	return &maskGreedy{cache: cache, merged: service.Coverage{}, curVal: map[trajectory.ID]float64{}}
}

// bitGreedy is the binary path's greedy state: the ORed source and
// destination bitsets of the chosen facilities. Gains are exact integers.
type bitGreedy struct {
	bin      *binPack
	src, dst []uint64
	served   int
}

func (g *bitGreedy) marginal(f *trajectory.Facility) float64 {
	fb := g.bin.fac[f.ID]
	gain := 0
	for i, w := range fb.src {
		s, d := g.src[i], g.dst[i]
		gain += bits.OnesCount64((s|w)&(d|fb.dst[i])) - bits.OnesCount64(s&d)
	}
	return float64(gain)
}

func (g *bitGreedy) add(f *trajectory.Facility) float64 {
	g.served += int(g.marginal(f))
	fb := g.bin.fac[f.ID]
	for i, w := range fb.src {
		g.src[i] |= w
		g.dst[i] |= fb.dst[i]
	}
	return float64(g.served)
}

// maskGreedy is the general path's greedy state: the merged coverage and
// per-user current values, so marginal gains touch only the users a
// candidate facility covers.
type maskGreedy struct {
	cache  *covCache
	merged service.Coverage
	curVal map[trajectory.ID]float64
	total  float64
}

func (g *maskGreedy) marginal(f *trajectory.Facility) float64 {
	cov := g.cache.covs[f.ID]
	users := g.cache.src.Users()
	var delta float64
	for id, m := range cov {
		u := users.ByID(id)
		if u == nil {
			continue
		}
		var unioned service.Mask
		if cur, ok := g.merged[id]; ok {
			unioned = cur.Clone()
			unioned.Or(m)
		} else {
			unioned = m
		}
		delta += g.cache.valueOf(u, unioned) - g.curVal[id]
	}
	return delta
}

func (g *maskGreedy) add(f *trajectory.Facility) float64 {
	cov := g.cache.covs[f.ID]
	users := g.cache.src.Users()
	g.merged.Merge(cov)
	for id := range cov {
		u := users.ByID(id)
		if u == nil {
			continue
		}
		v := g.cache.valueOf(u, g.merged[id])
		g.total += v - g.curVal[id]
		g.curVal[id] = v
	}
	return g.total
}

// Greedy runs the straightforward greedy of Section V-A: iteratively add
// the facility with the highest marginal combined service. Ties break on
// facility ID for determinism.
func Greedy(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	return greedyFromCache(cache, facilities, k), nil
}

func greedyFromCache(cache *covCache, facilities []*trajectory.Facility, k int) Result {
	st := newGreedyState(cache)
	remaining := append([]*trajectory.Facility(nil), facilities...)
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].ID < remaining[j].ID })
	var chosen []*trajectory.Facility
	var value float64
	for len(chosen) < k && len(remaining) > 0 {
		bestIdx := -1
		bestGain := -1.0
		for i, f := range remaining {
			if gain := st.marginal(f); gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		f := remaining[bestIdx]
		value = st.add(f)
		chosen = append(chosen, f)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	_, served := cache.evaluate(chosen)
	return Result{Facilities: chosen, Value: value, UsersServed: served}
}

// DefaultCandidateSize returns the paper's k' (the two-step pruning
// width): at least k, by default max(2k, k+8), capped at n.
func DefaultCandidateSize(k, n int) int {
	kp := 2 * k
	if kp < k+8 {
		kp = k + 8
	}
	if kp > n {
		kp = n
	}
	return kp
}

// TwoStepGreedy is the paper's MaxkCovRST solution: step 1 selects the
// kPrime facilities with the highest individual service using the
// best-first kMaxRRST search; step 2 runs the greedy on that candidate
// set. kPrime <= 0 selects DefaultCandidateSize(k, len(facilities)).
func TwoStepGreedy(eng *query.Engine, facilities []*trajectory.Facility, k, kPrime int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	if err := checkDistinctIDs(facilities); err != nil {
		return Result{}, err
	}
	if kPrime <= 0 {
		kPrime = DefaultCandidateSize(k, len(facilities))
	}
	if kPrime < k {
		kPrime = k
	}
	if kPrime > len(facilities) {
		kPrime = len(facilities)
	}
	top, _, err := eng.TopK(facilities, kPrime, p)
	if err != nil {
		return Result{}, err
	}
	candidates := make([]*trajectory.Facility, len(top))
	for i, r := range top {
		candidates[i] = r.Facility
	}
	cache, err := newCovCache(EngineSource{Engine: eng}, candidates, p)
	if err != nil {
		return Result{}, err
	}
	return greedyFromCache(cache, candidates, k), nil
}

// Exact enumerates every size-k subset and returns the best — feasible
// only for small instances; it guards against combinatorial blow-up.
func Exact(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	const maxSubsets = 5_000_000
	if c := binomial(len(facilities), k); c < 0 || c > maxSubsets {
		return Result{}, fmt.Errorf("maxcov: exact enumeration of C(%d,%d) subsets exceeds limit %d",
			len(facilities), k, maxSubsets)
	}
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := Result{Value: -1}
	subset := make([]*trajectory.Facility, k)
	for {
		for i, j := range idx {
			subset[i] = facilities[j]
		}
		if v, _ := cache.evaluate(subset); v > best.Value {
			best.Value = v
			best.Facilities = append(best.Facilities[:0:0], subset...)
		}
		// Next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == len(facilities)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	_, best.UsersServed = cache.evaluate(best.Facilities)
	return best, nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > 1<<40 {
			return -1
		}
	}
	return c
}

// GeneticOptions tunes the genetic solver.
type GeneticOptions struct {
	// Population size (0 means 32).
	Population int
	// Generations to evolve (0 means 20, the paper's iteration count).
	Generations int
	// MutationRate is the per-offspring gene replacement probability
	// (0 means 0.2).
	MutationRate float64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (o *GeneticOptions) defaults() {
	if o.Population <= 0 {
		o.Population = 32
	}
	if o.Generations <= 0 {
		o.Generations = 20
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.2
	}
}

// Genetic is the Gn-TQ(Z) comparison: a genetic algorithm over k-subsets
// with tournament selection, union crossover, and single-gene mutation.
// Fitness evaluations reuse precomputed coverage masks.
func Genetic(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params, opts GeneticOptions) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	opts.defaults()
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	type individual struct {
		genes   []int // indexes into facilities, sorted, distinct
		fitness float64
	}
	randomSubset := func() []int {
		perm := rng.Perm(len(facilities))[:k]
		sort.Ints(perm)
		return perm
	}
	evaluate := cache.genesEvaluator(facilities, k)

	pop := make([]individual, opts.Population)
	for i := range pop {
		g := randomSubset()
		pop[i] = individual{genes: g, fitness: evaluate(g)}
	}
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness > best.fitness {
			best = ind
		}
	}

	tournament := func() individual {
		winner := pop[rng.Intn(len(pop))]
		for i := 0; i < 2; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.fitness > winner.fitness {
				winner = c
			}
		}
		return winner
	}
	crossover := func(a, b []int) []int {
		union := map[int]bool{}
		for _, g := range a {
			union[g] = true
		}
		for _, g := range b {
			union[g] = true
		}
		pool := make([]int, 0, len(union))
		for g := range union {
			pool = append(pool, g)
		}
		sort.Ints(pool)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		child := append([]int(nil), pool[:k]...)
		sort.Ints(child)
		return child
	}
	mutate := func(genes []int) {
		if rng.Float64() >= opts.MutationRate {
			return
		}
		has := map[int]bool{}
		for _, g := range genes {
			has[g] = true
		}
		for tries := 0; tries < 10; tries++ {
			repl := rng.Intn(len(facilities))
			if !has[repl] {
				genes[rng.Intn(len(genes))] = repl
				sort.Ints(genes)
				return
			}
		}
	}

	for gen := 0; gen < opts.Generations; gen++ {
		next := make([]individual, 0, opts.Population)
		next = append(next, best) // elitism
		for len(next) < opts.Population {
			a, b := tournament(), tournament()
			child := crossover(a.genes, b.genes)
			mutate(child)
			ind := individual{genes: child, fitness: evaluate(child)}
			if ind.fitness > best.fitness {
				best = ind
			}
			next = append(next, ind)
		}
		pop = next
	}

	chosen := make([]*trajectory.Facility, k)
	for i, g := range best.genes {
		chosen[i] = facilities[g]
	}
	_, served := cache.evaluate(chosen)
	return Result{Facilities: chosen, Value: best.fitness, UsersServed: served}, nil
}
