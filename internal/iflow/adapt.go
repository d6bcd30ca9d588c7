package iflow

import (
	"fmt"

	"hnp/internal/netgraph"
)

// UpdateLinkCost is UpdateLinkCosts of one link.
func (rt *Runtime) UpdateLinkCost(a, b netgraph.NodeID, cost float64) error {
	return rt.UpdateLinkCosts([]LinkCostUpdate{{a, b, cost}})
}

// LinkCostUpdate names one link's new per-byte cost for UpdateLinkCosts.
type LinkCostUpdate struct {
	A, B netgraph.NodeID
	Cost float64
}

// UpdateLinkCosts models a change in network conditions: each link's
// per-byte cost is updated, then the routing snapshots are refreshed once
// for the whole batch (network drift arrives in bursts), so subsequent
// transfers are accounted at the new prices. (Stream routes follow the new
// snapshot immediately; in-flight tuples keep their old accounting, as on
// a real network.)
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
