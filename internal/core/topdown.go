package core

import (
	"fmt"
	"time"

	"hnp/internal/ads"
	costpkg "hnp/internal/cost"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// TopDown runs the paper's Top-Down algorithm: the query enters at the top
// of the hierarchy, where the coordinator exhaustively searches join
// orders and operator assignments over its cluster members using
// per-level cost estimates; the chosen assignment partitions the query
// into views, each recursively planned inside the member's underlying
// cluster, down to physical nodes at level 1. Derived-stream
// advertisements visible inside each cluster are offered to every search,
// so operator reuse is considered during planning, not after. Pass a nil
// registry to disable reuse.
func TopDown(h *hierarchy.Hierarchy, cat *query.Catalog, q *query.Query, reg *ads.Registry) (Result, error) {
	return TopDownOpts(h, cat, q, reg, Options{})
}

// Options tunes the hierarchical optimizers beyond the paper's defaults.
type Options struct {
	// Penalty adds a processing-load placement term (see Problem.Penalty);
	// nil disables load awareness.
	Penalty func(v netgraph.NodeID, inRate float64) float64
	// Obs, when non-nil and obs.Enabled, receives planner telemetry:
	// per-level search spans, candidates examined, reuse inputs offered
	// (metric names "core.<algo>.*"). Its flight recorder, when armed,
	// additionally receives PlanStarted/PlanChosen trace events.
	Obs *obs.Registry
}

// TopDownOpts is TopDown with explicit Options.
func TopDownOpts(h *hierarchy.Hierarchy, cat *query.Catalog, q *query.Query, reg *ads.Registry, opts Options) (Result, error) {
	sp := obs.StartSpan(opts.Obs, "core.topdown.plan")
	defer sp.End()
	started := emitPlanStarted(opts, q, "topdown")
	rt := query.BuildRates(cat, q)
	wt := query.BuildWidths(cat, q)
	td := &tdPlanner{h: h, q: q, rt: rt, wt: wt, opts: opts, obs: newPlannerObs(opts.Obs, "topdown")}
	if reg != nil {
		td.reuse = reg.InputsFor(q, rt, nil)
	}
	plan, trace, err := td.planView(h.Top(), BaseInputs(cat, q, rt), q.Sink, true)
	if err != nil {
		return Result{}, fmt.Errorf("top-down: %w", err)
	}
	plan = AttachAggregate(q, plan, h.Cover(h.Top()), h.Paths().Dist, opts.Penalty)
	wt.Stamp(plan)
	if err := plan.Validate(); err != nil {
		return Result{}, fmt.Errorf("top-down: invalid plan: %w", err)
	}
	res := Result{
		Plan:            plan,
		Cost:            plan.Cost(h.Paths().Dist, q.Sink),
		PlansConsidered: td.plans,
		ClustersPlanned: td.clusters,
		LevelsVisited:   h.Height(),
		Trace:           trace,
	}
	emitPlanChosen(opts, q, started, res)
	return res, nil
}

type tdPlanner struct {
	h        *hierarchy.Hierarchy
	q        *query.Query
	rt       query.RateTable
	wt       query.WidthTable
	opts     Options
	obs      plannerObs
	plans    float64
	clusters int
	// cover is the current view's cluster cover as a bitset, reused across
	// every planView call of the query (each view fully consumes it before
	// recursing into child views).
	cover nodeBitset
	// reuse is every advertised stream that can feed the query, from one
	// registry lookup; each view is offered the ones inside its cluster.
	reuse []query.Input
}

// planView plans one view (a sub-query given by its leaves) within cluster
// c, shipping the result toward out (costed when deliver is set), and
// recursively refines operator placements down to physical nodes.
func (td *tdPlanner) planView(c *hierarchy.Cluster, leaves []query.Input, out netgraph.NodeID, deliver bool) (*query.PlanNode, *PlanStep, error) {
	start := time.Now()
	step := &PlanStep{Level: c.Level, Coordinator: c.Coordinator}
	goal := unionMask(leaves)
	if len(leaves) == 1 && leaves[0].Mask == goal {
		// Nothing to join; the stream flows to its consumer directly. The
		// step examines no candidates (Plans stays 0), keeping the trace's
		// totals equal to the search-space accounting.
		step.Elapsed = time.Since(start)
		return query.Leaf(leaves[0]), step, nil
	}

	td.cover.fill(td.h.Cover(c), td.h.Graph().NumNodes())
	coverSet := &td.cover
	inputs := append([]query.Input(nil), leaves...)
	for _, in := range td.reuse {
		if coverSet.has(in.Loc) && in.Mask&goal == in.Mask {
			inputs = append(inputs, in)
			step.ReuseOffered++
		}
	}

	// Per-level estimated distances: endpoints inside this cluster's cover
	// are seen through their level-l representatives; remote endpoints
	// (streams entering the cluster) keep their physical location.
	level := c.Level
	paths := td.h.Paths()
	rep := func(n netgraph.NodeID) netgraph.NodeID {
		if coverSet.has(n) {
			return td.h.Rep(n, level)
		}
		return n
	}
	est := func(a, b netgraph.NodeID) float64 { return paths.Dist(rep(a), rep(b)) }

	plan0, cost0, err := Solve(Problem{
		Inputs: inputs, Sites: c.Members, Dist: est, Rates: td.rt, Widths: td.wt,
		Goal: goal, Sink: out, Deliver: deliver, Penalty: td.opts.Penalty,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("level %d: %w", level, err)
	}
	step.Plans = costpkg.ClusterSpace(len(leaves), len(c.Members))
	step.Inputs = len(inputs)
	step.BestCost = cost0
	step.Elapsed = time.Since(start) // local search only; children time themselves
	td.plans += step.Plans
	td.clusters++
	td.obs.search(step)

	if level == 1 || plan0.IsLeaf() {
		// Placements are physical (level 1) or the goal was met by a
		// single reused stream; no refinement needed.
		return plan0, step, nil
	}

	// The assignment partitions the query into views: maximal connected
	// operator groups assigned to the same member. Refine each view inside
	// the member's underlying cluster, producers before consumers.
	comps := splitComponents(plan0)
	resolved := map[*component]*query.PlanNode{}
	var resolve func(cp *component) (*query.PlanNode, error)
	resolve = func(cp *component) (*query.PlanNode, error) {
		if got, ok := resolved[cp]; ok {
			return got, nil
		}
		var compLeaves []query.Input
		childTrees := map[query.Mask]*query.PlanNode{}
		for _, x := range cp.externalChildren {
			if x.IsLeaf() {
				compLeaves = append(compLeaves, *x.In)
				continue
			}
			// Output of a view assigned to another member: resolve the
			// producer first so its true physical location is known.
			sub, err := resolve(comps.byRoot[x])
			if err != nil {
				return nil, err
			}
			childTrees[x.Mask] = sub
			compLeaves = append(compLeaves, query.Input{
				Mask: x.Mask, Rate: x.Rate, Loc: sub.Loc, Sig: td.q.SigOf(x.Mask),
				Width: x.Width,
			})
		}
		// Ship toward the consumer: the final sink for the root view, the
		// consuming member's node otherwise.
		cOut, cDeliver := out, deliver
		if cp.consumer != nil {
			cOut, cDeliver = cp.consumer.Loc, true
		}
		sub, childStep, err := td.planView(td.h.ChildCluster(cp.member, level), compLeaves, cOut, cDeliver)
		if err != nil {
			return nil, err
		}
		step.Children = append(step.Children, childStep)
		sub = substituteLeaves(sub, childTrees)
		resolved[cp] = sub
		return sub, nil
	}
	plan, err := resolve(comps.byRoot[rootOp(plan0)])
	if err != nil {
		return nil, nil, err
	}
	return plan, step, nil
}

// component is a maximal connected group of operators assigned to the same
// cluster member.
type component struct {
	member netgraph.NodeID
	root   *query.PlanNode
	// externalChildren are the streams entering the component: plan leaves
	// or roots of components at other members.
	externalChildren []*query.PlanNode
	// consumer is the operator (in another component) consuming this
	// component's root output; nil for the root component.
	consumer *query.PlanNode
}

type componentSet struct {
	all    []*component
	byRoot map[*query.PlanNode]*component
}

func rootOp(plan *query.PlanNode) *query.PlanNode { return plan }

// splitComponents groups the operators of a placed plan into per-member
// views. The plan's root must be an operator.
func splitComponents(plan *query.PlanNode) *componentSet {
	cs := &componentSet{byRoot: map[*query.PlanNode]*component{}}
	var build func(op *query.PlanNode, consumer *query.PlanNode) *component
	var grow func(cp *component, op *query.PlanNode)
	grow = func(cp *component, op *query.PlanNode) {
		for _, child := range []*query.PlanNode{op.L, op.R} {
			switch {
			case child.IsLeaf():
				cp.externalChildren = append(cp.externalChildren, child)
			case child.Loc == cp.member:
				grow(cp, child)
			default:
				sub := build(child, op)
				cp.externalChildren = append(cp.externalChildren, sub.root)
			}
		}
	}
	build = func(op *query.PlanNode, consumer *query.PlanNode) *component {
		cp := &component{member: op.Loc, root: op, consumer: consumer}
		cs.all = append(cs.all, cp)
		cs.byRoot[op] = cp
		grow(cp, op)
		return cp
	}
	build(plan, nil)
	return cs
}
