package core

import (
	"fmt"

	"hnp/internal/ads"
	costpkg "hnp/internal/cost"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// OptimalOpts computes the minimum-cost joint plan+placement over the whole
// network — the "exhaustive search / DP" baseline of the paper's Figures 7
// and 8. It considers every bushy join order and every placement of every
// operator on any node, plus reuse of every advertised derived stream when
// a registry is given. PlansConsidered reports the Lemma 1 size of the
// solution space this search covers (the paper plots the same closed form
// for the exhaustive line).
func OptimalOpts(g *netgraph.Graph, paths *netgraph.Paths, cat *query.Catalog, q *query.Query, reg *ads.Registry, opts Options) (Result, error) {
	rt := query.BuildRates(cat, q)
	wt := query.BuildWidths(cat, q)
	inputs := BaseInputs(cat, q, rt)
	var reuse []query.Input
	if reg != nil {
		reuse = reg.InputsFor(q, rt)
		inputs = append(inputs, reuse...)
	}
	sites := make([]netgraph.NodeID, g.NumNodes())
	for i := range sites {
		sites[i] = netgraph.NodeID(i)
	}
	plan, _, err := Solve(Problem{
		Inputs: inputs, Sites: sites, Dist: paths.Dist, SitePaths: paths, Rates: rt, Widths: wt,
		Goal: q.All(), Sink: q.Sink, Deliver: true,
	})
	if err != nil {
		return Result{}, fmt.Errorf("optimal: %w", err)
	}
	plan = AttachAggregate(q, plan, sites, paths.Dist)
	wt.Stamp(plan)
	return Result{
		Plan:            plan,
		Cost:            plan.Cost(paths.Dist, q.Sink),
		PlansConsidered: costpkg.Lemma1(q.K(), g.NumNodes()),
		ClustersPlanned: 1,
		LevelsVisited:   1,
		ReuseOffered:    len(reuse),
	}, nil
}
