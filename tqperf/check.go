package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/server"
)

// sampleEvery picks which unique reads are checked against the oracle:
// the brute-force Baseline is several times slower than the index.
const sampleEvery = 32

// checker holds what a run's answers are verified against. Inline
// checks run as each response arrives and fail the op on the spot;
// sampled answers are kept and compared with the brute-force Baseline
// once the timed phases are over.
type checker struct {
	w     workload
	users []*trajcover.Trajectory

	mu sync.Mutex
	// samples are unique reads kept for the Baseline comparison.
	samples []sample
	// pooled maps a checked pool key to the first answer served for it;
	// every later answer for that key must be the same bytes.
	pooled map[int]*sample
	// Acknowledged writes (write-mix): the final corpus is the initial
	// one minus acked deletes plus acked inserts.
	inserted []*trajcover.Trajectory
	deleted  map[trajcover.ID]bool
}

type sample struct {
	o    op
	body []byte
	// n counts the responses that were byte-equal to body.
	n int
}

func newChecker(w workload, users []*trajcover.Trajectory) *checker {
	return &checker{w: w, users: users, pooled: map[int]*sample{}, deleted: map[trajcover.ID]bool{}}
}

// judge is the inline check of one 2xx answer.
func (c *checker) judge(o op, res outcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case o.kind == opInsert:
		c.inserted = append(c.inserted, o.traj)
	case o.kind == opDelete:
		var dr server.DeleteResponse
		if err := json.Unmarshal(res.body, &dr); err != nil {
			return fmt.Errorf("delete %d: bad answer %q", o.id, res.body)
		}
		if !dr.Found {
			return fmt.Errorf("delete %d: existing trajectory reported not found", o.id)
		}
		c.deleted[o.id] = true
	case o.key >= 0:
		if o.key%16 != 0 {
			return nil
		}
		s := c.pooled[o.key]
		if s == nil {
			c.pooled[o.key] = &sample{o: o, body: res.body, n: 1}
			return nil
		}
		if !bytes.Equal(s.body, res.body) {
			return fmt.Errorf("pool key %d answered %q, earlier %q", o.key, res.body, s.body)
		}
		s.n++
	case c.w.writeShare == 0 && o.i%sampleEvery == 0:
		c.samples = append(c.samples, sample{o: o, body: res.body, n: 1})
	}
	return nil
}

// oracleBody is the wire answer the brute-force Baseline gives to a read.
func oracleBody(bl *trajcover.Baseline, o op, k int, q trajcover.Query) ([]byte, error) {
	if o.kind == opTopK {
		res, err := bl.TopK(o.facs, k, q)
		if err != nil {
			return nil, err
		}
		return server.MarshalTopKResponse(res), nil
	}
	vals := make([]float64, len(o.facs))
	for i, f := range o.facs {
		v, err := bl.ServiceValue(f, q)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return server.MarshalValuesResponse(vals), nil
}

// verifySamples compares every kept answer with the Baseline's and
// returns how many answered ops were wrong, with the first mismatch.
func (c *checker) verifySamples() (checked, wrong int, first error, err error) {
	bl, err := trajcover.NewBaseline(c.users, trajcover.TwoPoint)
	if err != nil {
		return 0, 0, nil, err
	}
	all := make([]*sample, 0, len(c.samples)+len(c.pooled))
	for i := range c.samples {
		all = append(all, &c.samples[i])
	}
	for _, s := range c.pooled {
		all = append(all, s)
	}
	for _, s := range all {
		want, err := oracleBody(bl, s.o, c.w.k, c.w.query())
		if err != nil {
			return 0, 0, nil, err
		}
		checked += s.n
		if !bytes.Equal(want, s.body) {
			wrong += s.n
			if first == nil {
				first = fmt.Errorf("%s op %d: served %q, Baseline %q", s.o.kind, s.o.i, s.body, want)
			}
		}
	}
	return checked, wrong, first, nil
}

// finalCorpus is the acked corpus once every write has been answered.
func (c *checker) finalCorpus() []*trajcover.Trajectory {
	out := make([]*trajcover.Trajectory, 0, len(c.users)+len(c.inserted))
	for _, u := range c.users {
		if !c.deleted[u.ID] {
			out = append(out, u)
		}
	}
	return append(out, c.inserted...)
}

// probeOps is the fixed probe set of the write-mix quiesce check.
func probeOps(w workload, seed int64) []op {
	g := newGenerator(w, seed)
	var out []op
	for i := 0; i < 8; i++ {
		facs := trajcover.BusRoutes(g.city, w.routes, w.stops, mix(seed, saltProbe, uint64(i)))
		kind := opTopK
		if i%2 == 1 {
			kind = opSV
		}
		out = append(out, g.read(kind, facs))
	}
	return out
}

// maxcovOracle answers MaxkCovRST the way the two-step greedy defines
// it, with the brute-force Baseline for both steps: the k' facilities
// that serve the most users alone, then greedy selection among them.
func maxcovOracle(bl *trajcover.Baseline, facs []*trajcover.Facility, k int, q trajcover.Query) (trajcover.CoverageResult, error) {
	top, err := bl.TopK(facs, maxcov.DefaultCandidateSize(k, len(facs)), q)
	if err != nil {
		return trajcover.CoverageResult{}, err
	}
	cands := make([]*trajcover.Facility, len(top))
	for i, r := range top {
		cands[i] = r.Facility
	}
	return bl.MaxCoverage(cands, k, q, trajcover.CoverageOptions{Algorithm: trajcover.FullGreedy})
}

func sameCoverage(a, b trajcover.CoverageResult) bool {
	if a.Value != b.Value || a.UsersServed != b.UsersServed || len(a.Facilities) != len(b.Facilities) {
		return false
	}
	for i := range a.Facilities {
		if a.Facilities[i].ID != b.Facilities[i].ID {
			return false
		}
	}
	return true
}
