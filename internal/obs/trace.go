package obs

import "time"

// SpanSource is a pre-bound pair of span metrics — the "<name>.seconds"
// histogram and "<name>.calls" counter — resolved once via
// Registry.SpanSource. Starting and ending spans on a source performs no
// string concatenation and no registry lookups, which matters on paths
// that open thousands of spans (planner searches, deploy, migrate). A nil
// *SpanSource is a valid no-op handle.
type SpanSource struct {
	seconds *Histogram
	calls   *Counter
}

// Start begins a span on the source. While instrumentation is disabled
// (or ss is nil) it returns the zero Span and costs one atomic load — no
// clock read, no allocation.
func (ss *SpanSource) Start() Span {
	if ss == nil || !Enabled.Load() {
		return Span{}
	}
	return Span{src: ss, start: time.Now()}
}

// Span is one timed section of work, recorded with the monotonic clock.
// Ending a span observes its duration into the source's histogram and
// bumps its call counter. The zero Span (returned while disabled, or from
// a nil source/registry) is inert.
type Span struct {
	src   *SpanSource
	start time.Time
}

// StartSpan begins a span named on the registry: a convenience wrapper
// over reg.SpanSource(name).Start() for call sites too cold to keep a
// bound handle. It pays one registry lookup per call, at start, so End
// stays a plain record; hot paths should bind a SpanSource instead.
func StartSpan(reg *Registry, name string) Span {
	if reg == nil || !Enabled.Load() {
		return Span{}
	}
	return reg.SpanSource(name).Start()
}

// End closes the span, records it, and returns its duration (0 for the
// zero Span).
func (s Span) End() time.Duration {
	if s.src == nil {
		return 0
	}
	d := time.Since(s.start) // monotonic: immune to wall-clock jumps
	s.src.seconds.Observe(d.Seconds())
	s.src.calls.Inc()
	return d
}
