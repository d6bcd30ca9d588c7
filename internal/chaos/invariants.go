package chaos

import (
	"fmt"

	"hnp/internal/obs"
)

// check runs the full invariant audit and records its verdict in the
// flight recorder: a passing audit leaves one KindInvariantChecked event
// (Pass=true), a violation leaves the same event carrying the violation
// text — the last entry in a dumped flight, preceded by the causal
// history that led there.
func (w *World) check() error {
	err := w.audit()
	if w.forcedErr != "" {
		if err == nil {
			err = fmt.Errorf("forced invariant violation: %s", w.forcedErr)
		}
		w.forcedErr = ""
	}
	if tr := w.Tracer(); tr.On() {
		ev := obs.Event{
			Kind: obs.KindInvariantChecked, Query: obs.NoID, Node: obs.NoID,
			VTime: w.eng.RT.Sim.Now(), Pass: err == nil,
		}
		if err != nil {
			ev.Detail = err.Error()
		}
		tr.Emit(ev)
	}
	return err
}

// audit checks every cross-cutting invariant after an event has fully
// applied. The engine's own audit runs first — everything that must hold
// at any instant whatever the history: layer-internal invariants,
// hierarchy membership ≡ liveness, fresh path snapshots in every layer,
// runtime deployed set ≡ the engine's, load ledger ≡ recompute,
// advertisements naming running operators on live nodes. What remains
// here needs the run's history: all cumulative counters — global
// transport statistics and per-query delivery statistics — must be
// monotone across the run (recoveries preserve history; only an explicit
// re-arrival resets a query's baseline).
func (w *World) audit() error {
	if err := w.eng.Audit(); err != nil {
		return err
	}
	rt := w.eng.RT

	// Global counters never move backwards.
	st := rt.Stats()
	switch {
	case st.TuplesTransferred < w.prev.TuplesTransferred:
		return fmt.Errorf("TuplesTransferred regressed %d -> %d", w.prev.TuplesTransferred, st.TuplesTransferred)
	case st.TuplesSent < w.prev.TuplesSent:
		return fmt.Errorf("TuplesSent regressed %d -> %d", w.prev.TuplesSent, st.TuplesSent)
	case st.TuplesDropped < w.prev.TuplesDropped:
		return fmt.Errorf("TuplesDropped regressed %d -> %d", w.prev.TuplesDropped, st.TuplesDropped)
	case st.WindowExpired < w.prev.WindowExpired:
		return fmt.Errorf("WindowExpired regressed %d -> %d", w.prev.WindowExpired, st.WindowExpired)
	case st.TotalBytes < w.prev.TotalBytes:
		return fmt.Errorf("TotalBytes regressed %g -> %g", w.prev.TotalBytes, st.TotalBytes)
	case st.TotalCost < w.prev.TotalCost:
		return fmt.Errorf("TotalCost regressed %g -> %g", w.prev.TotalCost, st.TotalCost)
	case st.Elapsed < w.prev.Elapsed:
		return fmt.Errorf("virtual clock ran backwards %g -> %g", w.prev.Elapsed, st.Elapsed)
	}
	w.prev = st

	// Per-query delivery statistics are monotone from each query's
	// baseline: zero at arrival, carried across failure recovery.
	for _, qid := range w.eng.RT.DeployedQueries() {
		s := rt.Sink(qid)
		if s == nil {
			return fmt.Errorf("deployed query %d has no sink statistics", qid)
		}
		base := w.prevSinks[qid]
		if s.Tuples < base.Tuples || s.Bytes < base.Bytes || s.LatencySum < base.LatencySum {
			return fmt.Errorf("query %d delivery statistics regressed: %d/%g/%g below baseline %d/%g/%g",
				qid, s.Tuples, s.Bytes, s.LatencySum, base.Tuples, base.Bytes, base.LatencySum)
		}
		w.prevSinks[qid] = *s
	}
	return nil
}
