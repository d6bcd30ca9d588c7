package core

import (
	"math"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// AttachAggregate wraps a planned join tree with the query's aggregation
// operator, placed at the site minimizing the transfer of the full-rate
// join output into the aggregate plus the (tiny) summary stream's trip to
// the sink — usually right on the join root, but asymmetric links can
// move it. It returns the plan unchanged when the query has no aggregate.
func AttachAggregate(q *query.Query, plan *query.PlanNode, sites []netgraph.NodeID, dist query.DistFunc) *query.PlanNode {
	if q.Agg == nil {
		return plan
	}
	best, bestCost := plan.Loc, math.Inf(1)
	w := plan.WidthOr1()
	consider := func(v netgraph.NodeID) {
		if c := plan.Rate*w*dist(plan.Loc, v) + q.Agg.OutRate*w*dist(v, q.Sink); c < bestCost {
			best, bestCost = v, c
		}
	}
	consider(plan.Loc)
	for _, v := range sites {
		consider(v)
	}
	un := query.NewUnary(plan, query.UnarySpec{Agg: *q.Agg, Sig: q.AggSig()}, best, q.Agg.OutRate)
	un.Width = plan.Width
	return un
}
