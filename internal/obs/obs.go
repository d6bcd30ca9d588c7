// Package obs is the dependency-light telemetry layer of the optimizer:
// race-safe counters, gauges and histograms collected in named registries,
// a span-style trace recorder with monotonic timings, and the ways the
// numbers get out (human text, a JSON /metrics handler, expvar).
//
// Instrumentation is designed to be free when nobody is watching: every
// mutating operation is guarded by the package-level Enabled atomic, all
// metric handles are nil-safe (methods on nil receivers are no-ops), and
// enabled-mode updates are single atomic operations. Instrumented code
// therefore never needs its own guards:
//
//	var deploys = reg.Counter("serving.deploys") // reg may be nil
//	deploys.Inc()                                // no-op until obs.Enable()
//
// Each hnp.System owns a private Registry so concurrent systems (and
// tests) never pollute each other's numbers; Default is the process-wide
// registry used by command-line surfaces (expvar, /metrics) and the
// experiment harnesses' progress counters.
package obs

import (
	"math"
	"sync/atomic"
)

// Enabled is the master switch for all instrumentation. While false (the
// default), every Counter/Gauge/Histogram mutation and every StartSpan is
// a cheap no-op — one atomic load — so instrumented hot paths stay within
// noise of un-instrumented code. Flip with Enable/Disable.
var Enabled atomic.Bool

// Enable turns instrumentation on.
func Enable() { Enabled.Store(true) }

// Disable turns instrumentation off. Values already recorded remain
// readable.
func Disable() { Enabled.Store(false) }

// On reports whether instrumentation is currently enabled.
func On() bool { return Enabled.Load() }

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 || !Enabled.Load() {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways: a level (Set) or a
// float accumulator (Add) — the planners use the latter for fractional
// search-space counts. A nil *Gauge is a valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || !Enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates d into the gauge (CAS loop; safe under contention).
func (g *Gauge) Add(d float64) {
	if g == nil || d == 0 || !Enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// defBuckets is the default histogram bucket layout: exponential bounds
// suited to seconds-scale durations from microseconds to tens of seconds.
var defBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Histogram counts observations into a fixed bucket layout (upper bounds,
// ascending; an implicit +Inf bucket catches the rest) and tracks count
// and sum. All updates are atomic; a nil *Histogram is a valid no-op
// handle. Bucket layouts are fixed at creation — no resizing, no
// allocation on the observe path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defBuckets
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || !Enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	// The sum gauge re-checks Enabled; that is fine — it cannot have been
	// turned off between the loads in any way that matters for totals.
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
