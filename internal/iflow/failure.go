package iflow

import (
	"slices"

	"hnp/internal/netgraph"
)

// FailNode models a node crash: every operator hosted on the node (base
// taps, joins, filters) dies immediately, subscriptions into them are
// dropped, and tuples in flight toward them are lost. It returns the IDs
// of the queries the crash affects, sorted, so the middleware can re-plan
// them: queries whose deployments referenced an operator on the failed
// node, and queries whose sink lives there (their consumer is gone — the
// delivery stream has nowhere to go until the middleware re-plans them,
// which tears the orphaned deployment down and fails their re-planning
// while the sink stays dead).
func (rt *Runtime) FailNode(v netgraph.NodeID) []int {
	var affected []int
	for qid, dep := range rt.deploys {
		if rt.sinks[qid].Node == v || slices.ContainsFunc(dep.held, func(k opKey) bool {
			return k.node == v && rt.ops[k] != nil
		}) {
			affected = append(affected, qid)
		}
	}
	// Retiring also collects what fed only the dead (refs == 0: e.g. the
	// upstream chain of a reused stream whose producing query left); range
	// skips entries that collection deletes before the loop reaches them.
	for k, op := range rt.ops {
		if k.node == v {
			rt.retire(op)
		}
	}
	slices.Sort(affected)
	return affected
}
