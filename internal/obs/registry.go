package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Registry holds named metrics. Handles are created on first use and
// stable thereafter: calling Counter twice with one name returns the same
// *Counter, so packages can bind handles once and increment lock-free. A
// nil *Registry is valid everywhere and hands out nil (no-op) handles,
// which is how un-instrumented call sites cost nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*SpanSource
	tracer   *Tracer
}

// Default is the process-wide registry: command surfaces (expvar, the
// /metrics endpoint) and experiment progress counters live here. Library
// components use per-System registries instead.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*SpanSource{},
		tracer:   NewTracer(0),
	}
}

// Tracer returns the registry's flight recorder. Every registry owns one
// (disarmed, and holding no segment until it records); a nil registry returns a nil
// (no-op) tracer, keeping the nil-handle contract.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (nil means defBuckets) if needed. The layout of an
// existing histogram is never changed: asking for an existing name with
// different non-nil bounds returns the original layout unchanged and
// bumps the "obs.histogram_bounds_conflict" counter in the same registry,
// so silently-ignored layouts are at least visible in snapshots.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	} else if bounds != nil && !slices.Equal(h.bounds, bounds) {
		r.counterLocked("obs.histogram_bounds_conflict").Inc()
	}
	return h
}

// SpanSource returns a pre-bound handle for repeatedly-timed sections:
// the "<name>.seconds" histogram and "<name>.calls" counter are resolved
// once, so Start/End on the handle cost no string concatenation and no
// registry lookups — just the clock reads and atomic updates. Hot paths
// (planner searches, deploy/migrate) bind one SpanSource at setup and
// reuse it per call. A nil registry returns a nil (no-op) source.
func (r *Registry) SpanSource(name string) *SpanSource {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ss, ok := r.spans[name]
	if !ok {
		h, have := r.hists[name+".seconds"]
		if !have {
			h = newHistogram(nil)
			r.hists[name+".seconds"] = h
		}
		ss = &SpanSource{seconds: h, calls: r.counterLocked(name + ".calls")}
		r.spans[name] = ss
	}
	return ss
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// entry for the implicit +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count, or 0 with no observations — never a division by
// zero.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that contains the target rank, Prometheus-style: the
// first bucket interpolates from 0, and ranks landing in the +Inf bucket
// return the highest finite bound (the estimate cannot exceed what the
// layout can resolve). Returns 0 with no observations.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1] // +Inf bucket: clamp
		}
		lower := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lower + (h.Bounds[i]-lower)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry: fully detached from the
// live metrics, safe to hold, serialize, or diff while instrumentation
// keeps running.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns a counter's value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Names returns every metric name in the snapshot, sorted, for
// deterministic rendering.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies the registry's current values. A nil registry yields an
// empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		TakenAt:    time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}
