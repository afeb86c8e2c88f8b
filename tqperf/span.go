package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function during the
// traced replay. Spans of one replayed request share Req; the request's
// root span has Parent -1 and every boundary call is its child.
type span struct {
	ID     int    `json:"id"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once the replay
// ends, so recording costs two clock reads and an append per span. When
// off, calls run untimed — the replay alternates the two to measure the
// recorder's own overhead.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 while recording is off).
func (r *recorder) begin(req, parent int, name string) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Req: req, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

// call records fn as a span named name under parent.
func (r *recorder) call(req, parent int, name string, fn func()) {
	id := r.begin(req, parent, name)
	fn()
	r.end(id)
}

// durations returns, in milliseconds, the duration of every span named
// name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, in milliseconds, the self time of every span named
// name.
func (r *recorder) selfTimes(name string) []float64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(selfTime(s, children[s.ID])))
		}
	}
	return out
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other or run past the
// parent; each instant of the parent counts once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

// marginal is the cost a layer adds on top of the boundaries it calls:
// the median of the outer boundary minus the medians of the inner ones.
func marginal(outer []float64, inner ...[]float64) float64 {
	m := median(append([]float64(nil), outer...))
	for _, in := range inner {
		m -= median(append([]float64(nil), in...))
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
