package maxcov

import (
	"math"
	"math/rand"
	"sort"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// AnnealOptions tunes the simulated-annealing solver.
type AnnealOptions struct {
	// Iterations is the number of proposal steps (0 means 2000).
	Iterations int
	// InitialTemp scales the acceptance of early uphill moves relative
	// to the incumbent value (0 means 0.1: a move 10% worse than the
	// incumbent is accepted with probability 1/e at the start).
	InitialTemp float64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (o *AnnealOptions) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = 2000
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = 0.1
	}
}

// Anneal solves MaxkCovRST with simulated annealing over k-subsets: the
// neighborhood swaps one chosen facility for one outside the subset, and
// the temperature decays geometrically to zero. The paper lists simulated
// annealing (with genetic algorithms and ant colony optimization) among
// the offline alternatives to its greedy solution; this implementation
// makes the comparison runnable.
func Anneal(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params, opts AnnealOptions) (Result, error) {
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

	evaluate := cache.genesEvaluator(facilities, k)

	// Start from a random subset.
	cur := rng.Perm(len(facilities))[:k]
	sort.Ints(cur)
	curVal := evaluate(cur)
	best := append([]int(nil), cur...)
	bestVal := curVal

	inCur := make(map[int]bool, k)
	for _, g := range cur {
		inCur[g] = true
	}
	if k < len(facilities) {
		for it := 0; it < opts.Iterations; it++ {
			// Geometric cooling from InitialTemp×max(bestVal,1) to ~0.
			temp := opts.InitialTemp * math.Max(bestVal, 1) *
				math.Pow(0.995, float64(it))
			// Propose: swap a random member for a random outsider.
			pos := rng.Intn(k)
			out := rng.Intn(len(facilities))
			for inCur[out] {
				out = rng.Intn(len(facilities))
			}
			old := cur[pos]
			cur[pos] = out
			val := evaluate(cur)
			accept := val >= curVal
			if !accept && temp > 0 {
				accept = rng.Float64() < math.Exp((val-curVal)/temp)
			}
			if accept {
				delete(inCur, old)
				inCur[out] = true
				curVal = val
				if val > bestVal {
					bestVal = val
					copy(best, cur)
				}
			} else {
				cur[pos] = old
			}
		}
	}
	sort.Ints(best)
	chosen := make([]*trajectory.Facility, k)
	for i, g := range best {
		chosen[i] = facilities[g]
	}
	_, served := cache.evaluate(chosen)
	return Result{Facilities: chosen, Value: bestVal, UsersServed: served}, nil
}
