// Package load is the ledger of the processing load deployed operators
// place on physical nodes. Deploys book their plans, undeploys and
// migrations take them back, and audits compare the ledger with a
// from-scratch recompute over the running plans. Planning never reads it.
package load

import (
	"sync"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Tracker accumulates per-node processing load, measured as the total
// input rate of the operators placed on each node (the work a symmetric
// hash join performs is proportional to its input rates). A Tracker is
// internally locked: concurrent deployments may record load while others
// read it.
type Tracker struct {
	mu   sync.Mutex
	load []float64 // by node, grown on demand; zero means no tracked load

	// Telemetry handles (nil until BindObs).
	obsTotal *obs.Gauge
	obsNodes *obs.Gauge
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// at returns node v's ledger entry, growing the ledger to reach it;
// callers hold t.mu.
func (t *Tracker) at(v netgraph.NodeID) *float64 {
	if int(v) >= len(t.load) {
		t.load = append(t.load, make([]float64, int(v)+1-len(t.load))...)
	}
	return &t.load[v]
}

// BindObs connects the tracker to a telemetry registry: the aggregate
// tracked load ("load.total_rate" gauge) and the number of loaded nodes
// ("load.loaded_nodes" gauge) are recorded there.
func (t *Tracker) BindObs(reg *obs.Registry) {
	t.obsTotal = reg.Gauge("load.total_rate")
	t.obsNodes = reg.Gauge("load.loaded_nodes")
}

// publishLocked refreshes the gauges; callers hold t.mu. The total is
// summed in node order, so equal ledgers publish bit-equal totals.
func (t *Tracker) publishLocked() {
	if t.obsTotal == nil {
		return
	}
	total, loaded := 0.0, 0
	for _, r := range t.load {
		total += r
		if r != 0 {
			loaded++
		}
	}
	t.obsTotal.Set(total)
	t.obsNodes.Set(float64(loaded))
}

// Load returns the tracked input rate on a node.
func (t *Tracker) Load(v netgraph.NodeID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *t.at(v)
}

// AddPlan accounts a deployed plan: every operator adds its children's
// output rates to its node. Derived leaves add nothing (the reused
// operator's load is already accounted by its own deployment).
func (t *Tracker) AddPlan(plan *query.PlanNode) { t.Replace(nil, plan) }

// RemovePlan reverses AddPlan for an undeployed plan.
func (t *Tracker) RemovePlan(plan *query.PlanNode) { t.Replace(plan, nil) }

// Replace swaps old's booking for new's in one locked step — the
// accounting path for a migration or a recovery. A concurrent reader never
// sees the load of an operator both plans keep go missing, as it would
// between a RemovePlan and an AddPlan call. Entries old leaves at ~zero
// are zeroed, so unchanged nodes never accumulate float dust. Either plan
// may be nil.
func (t *Tracker) Replace(old, new *query.PlanNode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, op := range old.Operators() {
		r := t.at(op.Loc)
		if *r -= op.InputRate(); *r <= 1e-12 {
			*r = 0
		}
	}
	for _, op := range new.Operators() {
		*t.at(op.Loc) += op.InputRate()
	}
	t.publishLocked()
}

// Snapshot returns a copy of the per-node ledger, for audits that
// recompute expected load from live deployments and assert equality (the
// chaos harness does this after every migration).
func (t *Tracker) Snapshot() map[netgraph.NodeID]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[netgraph.NodeID]float64{}
	for v, r := range t.load {
		if r != 0 {
			out[netgraph.NodeID(v)] = r
		}
	}
	return out
}
