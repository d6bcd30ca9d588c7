package core

import (
	"time"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Result is the outcome of one optimizer run for one query.
type Result struct {
	// Plan is the chosen operator tree with physical placements.
	Plan *query.PlanNode
	// Cost is the communication cost per unit time of the plan measured
	// on the actual network (not the hierarchy's estimates), including
	// delivery to the sink.
	Cost float64
	// PlansConsidered is the size of the search space examined, counted
	// as the nominal exhaustive tree×placement enumeration the algorithm
	// performs in each cluster it plans in (the quantity Figure 9 plots).
	PlansConsidered float64
	// ClustersPlanned counts cluster-level searches performed.
	ClustersPlanned int
	// LevelsVisited counts hierarchy levels traversed by the deployment
	// protocol; the IFLOW runtime derives protocol latency from it.
	LevelsVisited int
	// ReuseOffered counts the advertised derived streams the search was
	// offered from its one registry lookup: summed over the trace's steps
	// for Top-Down and Bottom-Up, every applicable ad for the optimal
	// search. Plan-then-deploy, which probes exact signatures only after
	// fixing its join tree, reports 0.
	ReuseOffered int
	// Trace is the tree of planning steps the deployment protocol
	// performed: which coordinator planned, at which level, examining how
	// many candidate solutions, and which plannings it triggered next.
	// The IFLOW runtime replays it to measure deployment time.
	Trace *PlanStep
}

// PlanStep is one coordinator-local planning action in a deployment.
type PlanStep struct {
	// Level is the hierarchy level the planning cluster lives at.
	Level int
	// Coordinator is the physical node that performed the search.
	Coordinator netgraph.NodeID
	// Plans is the nominal number of solutions examined. Pass-through
	// steps (a single stream flowing to its consumer) examine nothing and
	// report 0, so summing Plans over the trace always reproduces the
	// Result's PlansConsidered accounting exactly.
	Plans float64
	// Inputs is the number of streams the step joined over (leaves of the
	// view plus any reuse candidates offered to the search).
	Inputs int
	// ReuseOffered is how many advertised derived streams were offered to
	// this step's search.
	ReuseOffered int
	// BestCost is the estimated cost of the solution the step chose,
	// measured with the per-level distance estimates it planned under (0
	// for pass-through steps).
	BestCost float64
	// Elapsed is the wall-clock (monotonic) time the step's search took.
	Elapsed time.Duration
	// Children are the plannings triggered by this step (views handed to
	// lower-level coordinators for Top-Down, the next level's rewrite for
	// Bottom-Up).
	Children []*PlanStep
}

// BaseInputs builds the planner inputs for a query's base streams, located
// at their source nodes.
func BaseInputs(cat *query.Catalog, q *query.Query, rt query.RateTable) []query.Input {
	return appendBaseInputs(make([]query.Input, 0, q.K()), cat, q, rt)
}

// appendBaseInputs is BaseInputs into a caller-provided buffer.
func appendBaseInputs(dst []query.Input, cat *query.Catalog, q *query.Query, rt query.RateTable) []query.Input {
	for i, id := range q.Sources {
		m := query.Mask(1 << uint(i))
		dst = append(dst, query.Input{
			Mask: m,
			Rate: rt.Rate(m),
			Loc:  cat.Stream(id).Source,
			Sig:  q.SigOf(m),
		})
	}
	return dst
}

// substituteLeaves replaces every non-derived leaf that one of the
// assembled subtrees covers — same mask, same location — with that
// subtree, linking independently planned plan fragments into one tree. Nil
// entries of subs are skipped. It returns the (possibly new) root.
func substituteLeaves(root *query.PlanNode, subs []*query.PlanNode) *query.PlanNode {
	if root == nil {
		return nil
	}
	if root.IsLeaf() {
		for _, sub := range subs {
			if sub != nil && sub.Mask == root.Mask && sub.Loc == root.In.Loc && !root.In.Derived {
				return sub
			}
		}
		return root
	}
	root.L = substituteLeaves(root.L, subs)
	root.R = substituteLeaves(root.R, subs)
	return root
}

func unionMask(inputs []query.Input) query.Mask {
	var m query.Mask
	for _, in := range inputs {
		m |= in.Mask
	}
	return m
}
