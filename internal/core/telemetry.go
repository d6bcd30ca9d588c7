package core

import (
	"hnp/internal/obs"
	"hnp/internal/query"
)

// plannerObs carries the pre-bound telemetry handles one optimizer run
// records into. The zero value (nil handles) is a no-op, so planners
// instrument unconditionally and pay nothing when observation is off.
type plannerObs struct {
	// plans accumulates fractional search-space counts, so it is a gauge
	// used as a float accumulator rather than an integer counter.
	plans    *obs.Gauge
	clusters *obs.Counter
	levels   *obs.Histogram
	reuse    *obs.Counter
}

// plannerMetrics names one algorithm's metrics ("core.<algo>.*"), spelled
// once so binding them per planned query concatenates nothing.
type plannerMetrics struct{ plans, clusters, levels, reuse string }

func metricsFor(algo string) plannerMetrics {
	p := "core." + algo
	return plannerMetrics{p + ".plans_considered", p + ".clusters_planned", p + ".level_seconds", p + ".reuse_offered"}
}

var topDownMetrics, bottomUpMetrics = metricsFor("topdown"), metricsFor("bottomup")

// newPlannerObs binds one algorithm's metric handles. A nil registry — or
// observation being disabled — yields the no-op zero value without
// touching the registry.
func newPlannerObs(reg *obs.Registry, names plannerMetrics) plannerObs {
	if reg == nil || !obs.On() {
		return plannerObs{}
	}
	return plannerObs{
		plans:    reg.Gauge(names.plans),
		clusters: reg.Counter(names.clusters),
		levels:   reg.Histogram(names.levels, nil),
		reuse:    reg.Counter(names.reuse),
	}
}

// search records one completed cluster-level search step.
func (po plannerObs) search(s *PlanStep) {
	po.plans.Add(s.Plans)
	po.clusters.Inc()
	po.levels.Observe(s.Elapsed.Seconds())
	po.reuse.Add(int64(s.ReuseOffered))
}

// emitPlanStarted records the start of one optimizer search in the
// registry's flight recorder and returns the event ID (0 when the
// recorder is disarmed).
func emitPlanStarted(opts Options, q *query.Query, algo string) uint64 {
	tr := opts.Obs.Tracer()
	if !tr.On() {
		return 0
	}
	return tr.Emit(obs.Event{
		Kind:   obs.KindPlanStarted,
		Trace:  obs.QueryTrace(q.ID),
		Query:  q.ID,
		Node:   int(q.Sink),
		Detail: algo,
	})
}

// emitPlanChosen records the completed search: chosen plan cost, search
// space examined, and the root operator's placement.
func emitPlanChosen(opts Options, q *query.Query, started uint64, res Result) {
	tr := opts.Obs.Tracer()
	if !tr.On() {
		return
	}
	tr.Emit(obs.Event{
		Kind:   obs.KindPlanChosen,
		Parent: started,
		Trace:  obs.QueryTrace(q.ID),
		Query:  q.ID,
		Node:   int(res.Plan.Loc),
		Value:  res.Cost,
		Aux:    res.PlansConsidered,
	})
}
