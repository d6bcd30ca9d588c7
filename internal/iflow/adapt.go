package iflow

import (
	"fmt"

	"hnp/internal/netgraph"
)

// UpdateLinkCost models a change in network conditions: the link's
// per-byte cost is updated and the cost-routing snapshot refreshed, so
// subsequent transfers are accounted at the new price. (Stream routes
// follow the new snapshot immediately; in-flight tuples keep their old
// accounting, as on a real network.)
func (rt *Runtime) UpdateLinkCost(a, b netgraph.NodeID, cost float64) error {
	if err := rt.G.SetLinkCost(a, b, cost); err != nil {
		return fmt.Errorf("iflow: %w", err)
	}
	rt.refreshPaths()
	return nil
}

// LinkCostUpdate names one link's new per-byte cost for UpdateLinkCosts.
type LinkCostUpdate struct {
	A, B netgraph.NodeID
	Cost float64
}

// UpdateLinkCosts applies a batch of link-cost changes with a single
// all-pairs path recomputation at the end, instead of one per link as a
// loop over UpdateLinkCost would pay. Network drift arrives in bursts
// (a congested region reprices many links at once), and the recompute is
// O(V·E·log V) — the batch turns N recomputes into one.
//
// On a bad update the error is returned after the loop finishes, so
// earlier updates in the batch stay applied and the path snapshot is
// still refreshed — routing never runs on a half-applied graph with
// stale distances.
func (rt *Runtime) UpdateLinkCosts(batch []LinkCostUpdate) error {
	var firstErr error
	for _, u := range batch {
		if err := rt.G.SetLinkCost(u.A, u.B, u.Cost); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("iflow: %w", err)
		}
	}
	rt.refreshPaths()
	return firstErr
}
