package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one (-1 for
// a root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the length of a traced pass; they are
// written out (if asked) only once the pass has ended, so recording costs
// one slice append and two clock reads per span. A nil recorder records
// nothing, which is how untraced passes call the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.End = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, req, parent int, fn func()) time.Duration {
	id := r.begin(name, req, parent)
	fn()
	return r.end(id)
}

// byName groups span self times (µs) by span name: each span's duration
// less the time its direct children cover.
func (r *recorder) byName() map[string][]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	return out
}

// writeJSONL writes one span per line, tagged with the workload.
func (r *recorder) writeJSONL(w io.Writer, workload string) error {
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			ID       int    `json:"id"`
			span
		}{workload, i, s}); err != nil {
			return err
		}
	}
	return nil
}
