package core

import (
	"fmt"
	"sync"
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
	// Obs, when non-nil, receives planner telemetry: per-level search
	// spans, candidates examined, reuse inputs offered (metric names
	// "core.<algo>.*"). Its flight recorder, when armed, additionally
	// receives PlanStarted/PlanChosen trace events.
	Obs *obs.Registry
}

// TopDownOpts is TopDown with explicit Options.
func TopDownOpts(h *hierarchy.Hierarchy, cat *query.Catalog, q *query.Query, reg *ads.Registry, opts Options) (Result, error) {
	sp := obs.StartSpan(opts.Obs, "core.topdown.plan")
	defer sp.End()
	started := emitPlanStarted(opts, q, "topdown")
	rt := query.BuildRates(cat, q)
	wt := query.BuildWidths(cat, q)
	td := tdPool.Get().(*tdPlanner)
	defer td.release()
	td.h, td.q, td.rt, td.wt, td.opts = h, q, rt, wt, opts
	td.obs = newPlannerObs(opts.Obs, topDownMetrics)
	if reg != nil {
		td.reuse = reg.InputsFor(q, rt)
	}
	td.ins = appendBaseInputs(td.ins, cat, q, rt)
	plan, trace, err := td.planView(h.Top(), 0, q.Sink, true)
	if err != nil {
		return Result{}, fmt.Errorf("top-down: %w", err)
	}
	plan = AttachAggregate(q, plan, h.Cover(h.Top()), h.Paths().Dist)
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
		ReuseOffered:    td.offered,
		Trace:           trace,
	}
	emitPlanChosen(opts, q, started, res)
	return res, nil
}

// tdPlanner is the state of one Top-Down run. It is pooled for its slabs:
// a query's views are planned strictly one inside another, so each slab is
// a stack — a view pushes what it needs and pops it before returning —
// and a warmed-up planner builds no per-view slices or maps.
type tdPlanner struct {
	h        *hierarchy.Hierarchy
	q        *query.Query
	rt       query.RateTable
	wt       query.WidthTable
	opts     Options
	obs      plannerObs
	plans    float64
	clusters int
	offered  int
	// cover is the current view's cluster cover as a bitset (each view
	// fully consumes it before recursing into child views).
	cover nodeBitset
	// reuse is every advertised stream that can feed the query, from one
	// registry lookup; each view is offered the ones inside its cluster.
	reuse []query.Input

	// ins stacks the views' input lists: a view's leaves, pushed by its
	// parent, then the reuse candidates it is offered.
	ins []query.Input
	// ext stacks, per view being refined, the streams entering it (plan
	// leaves, or roots of views assigned to other members), and subs in
	// parallel the refined plan of each such producing view (nil for a
	// leaf).
	ext, subs []*query.PlanNode
}

var tdPool = sync.Pool{New: func() interface{} { return new(tdPlanner) }}

// release returns the planner to the pool holding nothing of the query it
// just planned but slab capacity.
func (td *tdPlanner) release() {
	clear(td.ins[:cap(td.ins)])
	clear(td.ext[:cap(td.ext)])
	clear(td.subs[:cap(td.subs)])
	*td = tdPlanner{cover: td.cover, ins: td.ins[:0], ext: td.ext[:0], subs: td.subs[:0]}
	tdPool.Put(td)
}

// planView plans one view — the sub-query whose leaves are td.ins[lo:],
// popped before it returns — within cluster c, shipping the result toward
// out (costed when deliver is set), and recursively refines operator
// placements down to physical nodes.
func (td *tdPlanner) planView(c *hierarchy.Cluster, lo int, out netgraph.NodeID, deliver bool) (*query.PlanNode, *PlanStep, error) {
	start := time.Now()
	step := &PlanStep{Level: c.Level, Coordinator: c.Coordinator}
	nLeaves := len(td.ins) - lo
	goal := unionMask(td.ins[lo:])
	if nLeaves == 1 {
		// Nothing to join; the stream flows to its consumer directly. The
		// step examines no candidates (Plans stays 0), keeping the trace's
		// totals equal to the search-space accounting.
		leaf := query.Leaf(td.ins[lo])
		td.ins = td.ins[:lo]
		step.Elapsed = time.Since(start)
		return leaf, step, nil
	}

	td.cover.fill(td.h.Cover(c), td.h.Graph().NumNodes())
	coverSet := &td.cover
	for _, in := range td.reuse {
		if coverSet.has(in.Loc) && in.Mask&goal == in.Mask {
			td.ins = append(td.ins, in)
			step.ReuseOffered++
		}
	}

	// Per-level estimated distances: endpoints inside this cluster's cover
	// are seen through their level-l representatives; remote endpoints
	// (streams entering the cluster) keep their physical location. At
	// level 1 every node represents itself and the estimate is the
	// snapshot; at every level the members are their own representatives
	// (TestMembersAreOwnReps), so the site block always is.
	level := c.Level
	paths := td.h.Paths()
	dist := query.DistFunc(paths.Dist)
	if level > 1 {
		rep := func(n netgraph.NodeID) netgraph.NodeID {
			if coverSet.has(n) {
				return td.h.Rep(n, level)
			}
			return n
		}
		dist = func(a, b netgraph.NodeID) float64 { return paths.Dist(rep(a), rep(b)) }
	}

	plan0, cost0, err := Solve(Problem{
		Inputs: td.ins[lo:], Sites: c.Members, Dist: dist, SitePaths: paths, Rates: td.rt, Widths: td.wt,
		Goal: goal, Sink: out, Deliver: deliver,
	})
	step.Inputs = len(td.ins) - lo
	td.ins = td.ins[:lo] // the plan's leaves are copies
	if err != nil {
		return nil, nil, fmt.Errorf("level %d: %w", level, err)
	}
	step.Plans = costpkg.ClusterSpace(nLeaves, len(c.Members))
	step.BestCost = cost0
	step.Elapsed = time.Since(start) // local search only; children time themselves
	td.plans += step.Plans
	td.clusters++
	td.offered += step.ReuseOffered
	td.obs.search(step)

	if level == 1 || plan0.IsLeaf() {
		// Placements are physical (level 1) or the goal was met by a
		// single reused stream; no refinement needed.
		return plan0, step, nil
	}
	plan, err := td.refine(plan0, level, out, deliver, step)
	if err != nil {
		return nil, nil, err
	}
	return plan, step, nil
}

// refine plans the view rooted at operator root inside the underlying
// cluster of the member it was assigned to. The assignment partitions a
// level's plan into views — maximal connected operator groups on one
// member — and a view's inputs are the plan leaves and the outputs of
// other members' views entering it; those producers are refined first, so
// their true physical locations are known. The result ships toward out:
// the final sink for the root view, the consuming member's node otherwise.
func (td *tdPlanner) refine(root *query.PlanNode, level int, out netgraph.NodeID, deliver bool, step *PlanStep) (*query.PlanNode, error) {
	lo := len(td.ext)
	td.pushExternal(root, root.Loc)
	hi := len(td.ext)
	for i := lo; i < hi; i++ {
		if x := td.ext[i]; !x.IsLeaf() {
			sub, err := td.refine(x, level, root.Loc, true, step)
			if err != nil {
				return nil, err
			}
			td.subs[i] = sub
		}
	}
	ilo := len(td.ins)
	for i := lo; i < hi; i++ {
		x := td.ext[i]
		if x.IsLeaf() {
			td.ins = append(td.ins, *x.In)
			continue
		}
		td.ins = append(td.ins, query.Input{
			Mask: x.Mask, Rate: x.Rate, Loc: td.subs[i].Loc, Sig: td.q.SigOf(x.Mask),
			Width: x.Width,
		})
	}
	sub, childStep, err := td.planView(td.h.ChildCluster(root.Loc, level), ilo, out, deliver)
	if err != nil {
		return nil, err
	}
	step.Children = append(step.Children, childStep)
	sub = substituteLeaves(sub, td.subs[lo:hi])
	td.ext, td.subs = td.ext[:lo], td.subs[:lo]
	return sub, nil
}

// pushExternal pushes the streams entering the view that op belongs to —
// the operators reachable from op without leaving member — in plan order.
func (td *tdPlanner) pushExternal(op *query.PlanNode, member netgraph.NodeID) {
	for _, child := range [2]*query.PlanNode{op.L, op.R} {
		if !child.IsLeaf() && child.Loc == member {
			td.pushExternal(child, member)
			continue
		}
		td.ext = append(td.ext, child)
		td.subs = append(td.subs, nil)
	}
}
