package iflow

import (
	"fmt"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// This file closes the paper's statistics loop: "the expected data-rates
// of the stream sources and the selectivities of their various attributes
// [are] measured online or using gathered statistics over the stream
// sources". The runtime's operator counters provide the measurements; the
// catalog the optimizers plan with is refreshed from them, so the next
// (re-)optimization uses observed rather than assumed statistics.
//
// Measurements are windowed. Dividing an operator's cumulative output
// count by its total lifetime biases the estimate toward stale history:
// after a rate shift the quotient converges to the new rate only
// asymptotically (a 10× shift at time T still reads ~2× at 9T). A
// StatsWindow snapshots every operator's counters at a point in virtual
// time, so rates are deltas over the window since — the estimate tracks
// the current rate regardless of how much history preceded the window.

// StatsWindow is a snapshot of per-operator output counters at a point in
// virtual time. Rates computed against it cover only the window between
// the snapshot and now, so drift shows up within one window instead of
// being averaged away by history. The zero start (a window taken before
// any virtual time passed) degenerates to lifetime rates.
type StatsWindow struct {
	start  float64
	counts map[opKey]int64
}

// NewStatsWindow snapshots all live operators' output counts at the
// current virtual time. Operators created after the snapshot read a zero
// baseline: their whole output lies inside the window.
func (rt *Runtime) NewStatsWindow() *StatsWindow {
	w := &StatsWindow{counts: make(map[opKey]int64, len(rt.ops))}
	w.Roll(rt)
	return w
}

// Roll advances the window to the current virtual time, re-snapshotting
// every live operator's counters. Counts of operators that disappeared
// since the last snapshot are dropped.
func (w *StatsWindow) Roll(rt *Runtime) {
	w.start = rt.Sim.Now()
	clear(w.counts)
	for k, op := range rt.ops {
		w.counts[k] = op.OutCount
	}
}

// Start returns the virtual time the window was last rolled to.
func (w *StatsWindow) Start() float64 { return w.start }

// WindowedRate returns an operator's measured output rate in tuples per
// second over the window — output since the snapshot divided by elapsed
// time since the snapshot — or 0 when the operator is missing or no time
// has passed. Only the window counts: a cumulative count would weight all
// history equally and so lag a rate shift indefinitely.
func (rt *Runtime) WindowedRate(w *StatsWindow, sig string, node netgraph.NodeID) float64 {
	op := rt.Operator(sig, node)
	if op == nil {
		return 0
	}
	elapsed := rt.Sim.Now() - w.start
	if elapsed <= 0 {
		return 0
	}
	return float64(op.OutCount-w.counts[op.key]) / elapsed
}

// Calibrate refreshes the catalog from a deployed plan's runtime counters
// measured over the given window: base stream rates become their taps'
// windowed emission rates, and the pairwise selectivity of every two-way
// join over base leaves is re-estimated as windowedOut / (windowedLeft ×
// windowedRight). It returns the number of statistics updated. Joins
// above the first level compose from pairwise selectivities, so
// calibrating the leaves-level joins recalibrates the whole rate model.
//
// Callers that recalibrate periodically should Roll the window after each
// pass so every calibration covers exactly one interval.
func (rt *Runtime) Calibrate(cat *query.Catalog, q *query.Query, plan *query.PlanNode, w *StatsWindow) int {
	if w == nil || rt.Sim.Now()-w.start <= 0 {
		return 0
	}
	elapsed := rt.Sim.Now() - w.start
	updated := 0
	// Refresh base stream rates from their taps.
	for _, leaf := range plan.Leaves() {
		if leaf.In.Derived {
			continue
		}
		ids := q.StreamsOf(leaf.Mask)
		if len(ids) != 1 {
			continue
		}
		if r := rt.WindowedRate(w, leaf.In.Sig, leaf.Loc); r > 0 {
			cat.SetRate(ids[0], r)
			updated++
		}
	}
	var walk func(n *query.PlanNode)
	walk = func(n *query.PlanNode) {
		if n == nil || n.IsLeaf() {
			return
		}
		walk(n.L)
		if !n.IsUnary() {
			walk(n.R)
		}
		if n.IsUnary() || !n.L.IsLeaf() || !n.R.IsLeaf() ||
			n.L.In.Derived || n.R.In.Derived {
			return
		}
		lIDs := q.StreamsOf(n.L.Mask)
		rIDs := q.StreamsOf(n.R.Mask)
		if len(lIDs) != 1 || len(rIDs) != 1 {
			return
		}
		lRate := rt.WindowedRate(w, n.L.In.Sig, n.L.Loc)
		rRate := rt.WindowedRate(w, n.R.In.Sig, n.R.Loc)
		join := rt.Operator(q.SigOf(n.Mask), n.Loc)
		if lRate <= 0 || rRate <= 0 || join == nil {
			return
		}
		measured := float64(join.OutCount-w.counts[join.key]) / elapsed
		sel := measured / (lRate * rRate)
		cat.SetSelectivity(lIDs[0], rIDs[0], sel)
		updated++
	}
	walk(plan)
	return updated
}

// SetSourceRate retunes a live base-stream tap: emissions scheduled from
// now on use the new rate (the gap already drawn keeps its old draw, as
// on a real feed whose next message is already on the wire). The catalog
// is deliberately not touched — the planning model learns the new rate
// through Calibrate, which is the closed loop the adaptive controller
// exercises.
func (rt *Runtime) SetSourceRate(sig string, node netgraph.NodeID, rate float64) error {
	if err := checkRate(sig, rate); err != nil {
		return err
	}
	op := rt.Operator(sig, node)
	if op == nil || !op.isBase {
		return fmt.Errorf("iflow: no base tap %s@%d to retune", sig, node)
	}
	op.rate = rate
	op.expRate = rate
	return nil
}
