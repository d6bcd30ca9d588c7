package baseline

import (
	"fmt"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// PlanThenDeploy is the conventional phased approach of Figure 1(a): pick
// the join order by selectivities alone at "compile time", then deploy
// that fixed tree with an optimal placement (and post-hoc reuse when a
// registry is given). Its gap to the joint optimizers quantifies the
// paper's Figure 2 claim.
func PlanThenDeploy(g *netgraph.Graph, paths *netgraph.Paths, cat *query.Catalog,
	q *query.Query, reg *ads.Registry) (core.Result, error) {
	rt := query.BuildRates(cat, q)
	tree, err := SelectivityTree(core.BaseInputs(cat, q, rt), rt, q.All())
	if err != nil {
		return core.Result{}, fmt.Errorf("plan-then-deploy: %w", err)
	}
	placed, cost, err := PlaceFixedTree(tree, q, AllNodes(g), paths.Dist, q.Sink, reg)
	if err != nil {
		return core.Result{}, fmt.Errorf("plan-then-deploy: %w", err)
	}
	if err := placed.Validate(); err != nil {
		return core.Result{}, fmt.Errorf("plan-then-deploy: invalid plan: %w", err)
	}
	// The phased planner searches placements width-blind (its point is to
	// be the conventional baseline), but its plans still execute and are
	// costed under the schema width model so comparisons stay apples to
	// apples.
	if wt := query.BuildWidths(cat, q); wt != nil {
		wt.Stamp(placed)
		cost = placed.Cost(paths.Dist, q.Sink)
	}
	// The phased search considers one tree but all placements of it:
	// N^(K-1) deployments.
	considered := 1.0
	for i := 1; i < q.K(); i++ {
		considered *= float64(g.NumNodes())
	}
	return core.Result{
		Plan:            placed,
		Cost:            cost,
		PlansConsidered: considered,
		ClustersPlanned: 1,
		LevelsVisited:   1,
	}, nil
}
