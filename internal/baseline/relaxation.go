package baseline

import (
	"fmt"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// RelaxationConfig tunes the Relaxation baseline. The paper used a
// 3-dimensional cost space computed with 4 iterations; those are the
// defaults of DefaultRelaxation.
type RelaxationConfig struct {
	// EmbedRounds is the number of spring-relaxation rounds building the
	// cost space.
	EmbedRounds int
	// PlaceIters is the number of operator relaxation iterations.
	PlaceIters int
}

// DefaultRelaxation mirrors the paper's experimental configuration.
func DefaultRelaxation() RelaxationConfig {
	return RelaxationConfig{EmbedRounds: 4, PlaceIters: 4}
}

// Relaxation implements the placement heuristic of Pietzuch et al. (ICDE
// 2006) as the paper evaluated it: a phased approach that first fixes the
// selectivity-optimal join tree, then relaxes operator coordinates in a
// 3-D cost space — each operator is pulled by its children, its parent and
// (for the root) the sink with spring strengths equal to the stream rates
// on those edges — and finally snaps every operator to the nearest
// physical node. When a registry is given, advertised subtrees are reused
// post-hoc exactly like the other phased baselines.
func Relaxation(g *netgraph.Graph, paths *netgraph.Paths, emb *Embedding,
	cat *query.Catalog, q *query.Query, reg *ads.Registry, cfg RelaxationConfig) (core.Result, error) {
	rt := query.BuildRates(cat, q)
	tree, err := SelectivityTree(core.BaseInputs(cat, q, rt), rt, q.All())
	if err != nil {
		return core.Result{}, fmt.Errorf("relaxation: %w", err)
	}
	// Post-hoc reuse: replace maximal advertised subtrees by the derived
	// stream materialized closest (in path cost) to the sink.
	if reg != nil {
		tree = reuseSubtrees(tree, q, reg, paths, q.Sink)
	}

	ops := tree.Operators()
	if len(ops) == 0 {
		// Whole query satisfied by a single stream.
		placed := query.Leaf(*tree.In)
		return core.Result{
			Plan: placed, Cost: placed.Cost(paths.Dist, q.Sink),
			PlansConsidered: 1, ClustersPlanned: 1, LevelsVisited: 1,
		}, nil
	}

	// Initialize operator coordinates at the centroid of their leaves.
	pos := map[*query.PlanNode]Point3{}
	var centroid func(n *query.PlanNode) Point3
	centroid = func(n *query.PlanNode) Point3 {
		if n.IsLeaf() {
			return emb.Pos[n.Loc]
		}
		c := centroid(n.L).add(centroid(n.R)).scale(0.5)
		pos[n] = c
		return c
	}
	centroid(tree)

	parent := map[*query.PlanNode]*query.PlanNode{}
	for _, op := range ops {
		for _, ch := range []*query.PlanNode{op.L, op.R} {
			parent[ch] = op
		}
	}
	at := func(n *query.PlanNode) Point3 {
		if n.IsLeaf() {
			return emb.Pos[n.Loc]
		}
		return pos[n]
	}

	// Spring relaxation: weighted average of neighbors, weights = rates.
	for it := 0; it < cfg.PlaceIters; it++ {
		for _, op := range ops {
			var num Point3
			den := 0.0
			for _, ch := range []*query.PlanNode{op.L, op.R} {
				num = num.add(at(ch).scale(ch.Rate))
				den += ch.Rate
			}
			if p := parent[op]; p != nil {
				num = num.add(at(p).scale(op.Rate))
				den += op.Rate
			} else {
				num = num.add(emb.Pos[q.Sink].scale(op.Rate))
				den += op.Rate
			}
			if den > 0 {
				pos[op] = num.scale(1 / den)
			}
		}
	}

	// Snap to the nearest physical node in the cost space.
	var place func(n *query.PlanNode) *query.PlanNode
	place = func(n *query.PlanNode) *query.PlanNode {
		if n.IsLeaf() {
			return query.Leaf(*n.In)
		}
		return query.Join(place(n.L), place(n.R), emb.Nearest(pos[n]), n.Rate)
	}
	placed := place(tree)
	if err := placed.Validate(); err != nil {
		return core.Result{}, fmt.Errorf("relaxation: invalid plan: %w", err)
	}
	return core.Result{
		Plan:            placed,
		Cost:            placed.Cost(paths.Dist, q.Sink),
		PlansConsidered: float64(len(ops) * cfg.PlaceIters),
		ClustersPlanned: 1,
		LevelsVisited:   1,
	}, nil
}

// reuseSubtrees replaces every maximal subtree that has an advertisement
// with a derived leaf at the ad node closest to the sink.
func reuseSubtrees(n *query.PlanNode, q *query.Query, reg *ads.Registry,
	paths *netgraph.Paths, sink netgraph.NodeID) *query.PlanNode {
	if n.IsLeaf() {
		return n
	}
	if as := reg.Lookup(q.SigOf(n.Mask)); len(as) > 0 {
		best := as[0]
		for _, ad := range as[1:] {
			if paths.Dist(ad.Node, sink) < paths.Dist(best.Node, sink) {
				best = ad
			}
		}
		return query.Leaf(query.Input{
			Mask: n.Mask, Rate: n.Rate, Loc: best.Node, Derived: true, Sig: q.SigOf(n.Mask),
		})
	}
	n.L = reuseSubtrees(n.L, q, reg, paths, sink)
	n.R = reuseSubtrees(n.R, q, reg, paths, sink)
	return n
}
