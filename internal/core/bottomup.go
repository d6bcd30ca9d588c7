package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"hnp/internal/ads"
	costpkg "hnp/internal/cost"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// BottomUpOpts runs the paper's Bottom-Up algorithm: the query is registered
// at its sink and propagates up the sink's coordinator chain. At each
// level, the coordinator rewrites the query into a locally-available view
// (base and derived streams inside its cluster's cover) and a remote
// remainder, deploys the local view — an exhaustive search restricted to
// the current cluster, with operator placements refined down the
// partition hierarchy exactly as in Top-Down — and hands the rewritten
// query to the next level. What Bottom-Up never does is reconsider join
// orderings across levels: joins committed low in the hierarchy stay
// committed, which is why its sub-optimality, unlike Top-Down's, cannot
// be bounded (only its placement of the chosen ordering can). Pass a nil
// registry to disable reuse.
func BottomUpOpts(h *hierarchy.Hierarchy, cat *query.Catalog, q *query.Query, reg *ads.Registry, opts Options) (Result, error) {
	sp := obs.StartSpan(opts.Obs, "core.bottomup.plan")
	defer sp.End()
	started := emitPlanStarted(opts, q, "bottomup")
	po := newPlannerObs(opts.Obs, bottomUpMetrics)
	rt := query.BuildRates(cat, q)
	wt := query.BuildWidths(cat, q)
	full := q.All()
	pending := BaseInputs(cat, q, rt)
	// Every advertised stream that can feed the query, from one registry
	// lookup; each level takes the ones inside its cluster.
	var reuse []query.Input
	if reg != nil {
		reuse = reg.InputsFor(q, rt)
	}
	var assembled []*query.PlanNode // each level's local view, by the mask it covers

	var plans float64
	clusters, offered := 0, 0
	levels := 0
	var traceRoot, traceTip *PlanStep
	// coverSet is reused across the level sweep: each level fully consumes
	// it before the next iteration refills it.
	var coverSet nodeBitset

	for l := 1; l <= h.Height(); l++ {
		start := time.Now()
		c := h.ClusterOf(h.Rep(q.Sink, l), l)
		if c == nil {
			return Result{}, fmt.Errorf("bottom-up: sink %d has no cluster at level %d", q.Sink, l)
		}
		coverSet.fill(h.Cover(c), h.Graph().NumNodes())
		top := l == h.Height()

		var avail []query.Input
		for _, in := range pending {
			if coverSet.has(in.Loc) {
				avail = append(avail, in)
			}
		}
		leaves := append([]query.Input(nil), avail...)
		goal := unionMask(avail)
		// A derived stream materialized locally makes even remote base
		// positions locally available; extend the view with disjoint ads.
		for _, in := range reuse {
			if coverSet.has(in.Loc) && in.Mask&goal == 0 {
				leaves = append(leaves, in)
				goal |= in.Mask
			}
		}
		if goal == 0 || len(leaves) < 2 {
			continue // nothing to join locally yet
		}
		if single(pending, goal) {
			if top {
				break // fully joined below the top; deliver the stream as is
			}
			continue // a lone local view: its joins happen higher up
		}

		// Offer every locally advertised derived stream to the search.
		inputs := append([]query.Input(nil), leaves...)
		reuseOffered := 0
		for _, in := range reuse {
			if coverSet.has(in.Loc) && in.Mask&goal == in.Mask {
				inputs = append(inputs, in)
				reuseOffered++
			}
		}

		// The local view's result ultimately flows toward the sink the
		// query was registered at (always inside this cluster's cover
		// along the sink's coordinator chain), so placement is biased by
		// delivery toward it; the delivery edge itself is costed once, on
		// the assembled plan. Unlike Top-Down, the view is planned once,
		// over this cluster's members, and operator placements are then
		// refined greedily into the members' sub-clusters — no recursive
		// re-enumeration, which is what keeps Bottom-Up's search space and
		// deployment time small.
		plan, cost0, err := Solve(Problem{
			Inputs: inputs, Sites: c.Members, Dist: h.Paths().Dist, SitePaths: h.Paths(), Rates: rt, Widths: wt,
			Goal: goal, Sink: q.Sink, Deliver: true,
		})
		if err != nil {
			return Result{}, fmt.Errorf("bottom-up: level %d: %w", l, err)
		}
		step := &PlanStep{
			Level:        l,
			Coordinator:  c.Coordinator,
			Plans:        costpkg.ClusterSpace(len(avail), len(c.Members)),
			Inputs:       len(inputs),
			ReuseOffered: reuseOffered,
			BestCost:     cost0,
		}
		step.Plans += refinePlacements(h, c, plan, q.Sink)
		step.Elapsed = time.Since(start)
		plans += step.Plans
		clusters++
		offered += reuseOffered
		po.search(step)
		if traceTip == nil {
			traceRoot, traceTip = step, step
		} else {
			traceTip.Children = append(traceTip.Children, step)
			traceTip = step
		}
		levels = l

		plan = substituteLeaves(plan, assembled)
		assembled = append(assembled, plan)

		var next []query.Input
		for _, in := range pending {
			if in.Mask&goal == 0 {
				next = append(next, in)
			} else if in.Mask&goal != in.Mask {
				return Result{}, fmt.Errorf("bottom-up: pending input %b straddles goal %b", in.Mask, goal)
			}
		}
		joined := query.Input{
			Mask: goal, Rate: rt.Rate(goal), Loc: plan.Loc, Sig: q.SigOf(goal),
		}
		if wt != nil {
			joined.Width = wt.Width(goal)
		}
		next = append(next, joined)
		pending = next
	}

	if len(pending) != 1 || pending[0].Mask != full {
		return Result{}, fmt.Errorf("bottom-up: query not fully joined (pending %d views)", len(pending))
	}
	var final *query.PlanNode
	if i := slices.IndexFunc(assembled, func(p *query.PlanNode) bool { return p.Mask == full }); i >= 0 {
		final = assembled[i]
	} else {
		final = query.Leaf(pending[0])
	}
	final = AttachAggregate(q, final, h.Cover(h.Top()), h.Paths().Dist)
	wt.Stamp(final)
	if err := final.Validate(); err != nil {
		return Result{}, fmt.Errorf("bottom-up: invalid plan: %w", err)
	}
	if levels == 0 {
		levels = 1 // single-source query: registration only
	}
	res := Result{
		Plan:            final,
		Cost:            final.Cost(h.Paths().Dist, q.Sink),
		PlansConsidered: plans,
		ClustersPlanned: clusters,
		LevelsVisited:   levels,
		ReuseOffered:    offered,
		Trace:           traceRoot,
	}
	emitPlanChosen(opts, q, started, res)
	return res, nil
}

// refinePlacements resolves every operator of a coarse plan (placed on
// cluster members, i.e. sub-cluster coordinators) down to a physical node
// by greedy hierarchical descent: at each level the operator moves to the
// best member of its current node's child cluster under a local objective
// — pull the children's streams in, push the output toward the consumer.
// Each descent step chooses with exact inter-member costs but cannot undo
// the coarser choice above it, so the Theorem 1 approximation accumulates
// with hierarchy depth, exactly as the paper's cluster-size experiments
// show. It mutates the plan in place and returns the number of candidate
// placements examined, which Bottom-Up adds to its search-space count.
func refinePlacements(h *hierarchy.Hierarchy, c *hierarchy.Cluster, plan *query.PlanNode, sink netgraph.NodeID) float64 {
	if c.Level < 2 {
		return 0 // members are physical nodes already
	}
	dist := h.Paths().Dist
	examined := 0.0
	var sweep func(n *query.PlanNode, consumer netgraph.NodeID)
	sweep = func(n *query.PlanNode, consumer netgraph.NodeID) {
		if n.IsLeaf() || n.IsUnary() {
			return
		}
		sweep(n.L, n.Loc)
		sweep(n.R, n.Loc)
		objective := func(v netgraph.NodeID) float64 {
			return n.L.Rate*n.L.WidthOr1()*dist(n.L.Loc, v) +
				n.R.Rate*n.R.WidthOr1()*dist(n.R.Loc, v) +
				n.Rate*n.WidthOr1()*dist(v, consumer)
		}
		cur := n.Loc
		for lev := c.Level; lev >= 2; lev-- {
			child := h.ChildCluster(cur, lev)
			if child == nil {
				break
			}
			best, bestCost := cur, math.MaxFloat64
			for _, v := range child.Members {
				examined++
				if cost := objective(v); cost < bestCost {
					best, bestCost = v, cost
				}
			}
			cur = best
		}
		n.Loc = cur
	}
	sweep(plan, sink)
	sweep(plan, sink)
	return examined
}

// single reports whether some pending view already covers the whole goal.
func single(pending []query.Input, goal query.Mask) bool {
	for _, in := range pending {
		if in.Mask == goal {
			return true
		}
	}
	return false
}
