package iflow

import (
	"fmt"
	"slices"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// FailNode models a node crash: every operator hosted on the node (base
// taps, joins, filters) dies immediately, subscriptions into them are
// dropped, and tuples in flight toward them are lost. It returns the IDs
// of the queries the crash affects, sorted, so the middleware can re-plan
// them: queries whose deployments referenced an operator on the failed
// node, and queries whose sink lives there (their consumer is gone — the
// delivery stream has nowhere to go until RecoverQueries re-plans them,
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

// RecoverQueries re-deploys the given queries after a failure: each is
// undeployed (releasing surviving shared operators correctly), re-planned
// with replan against current conditions, and deployed again, preserving
// sink statistics. Queries whose re-planning fails (e.g. their base
// source died with the node) are reported in failedIDs rather than
// aborting the rest.
func (rt *Runtime) RecoverQueries(affected []int, cat *query.Catalog, replan ReplanFunc,
	until float64) (recovered, failedIDs []int, err error) {
	for _, qid := range affected {
		q := rt.DeployedQuery(qid)
		if q == nil {
			return recovered, failedIDs, fmt.Errorf("iflow: unknown query %d", qid)
		}
		old := rt.sinks[qid]
		if uerr := rt.Undeploy(qid); uerr != nil {
			return recovered, failedIDs, uerr
		}
		fresh, perr := replan(q)
		if perr != nil {
			failedIDs = append(failedIDs, qid)
			continue
		}
		if derr := rt.Deploy(q, fresh, cat, until); derr != nil {
			failedIDs = append(failedIDs, qid)
			continue
		}
		if old != nil {
			s := rt.sinks[qid]
			s.Tuples += old.Tuples
			s.Bytes += old.Bytes
			s.LatencySum += old.LatencySum
		}
		recovered = append(recovered, qid)
	}
	return recovered, failedIDs, nil
}
