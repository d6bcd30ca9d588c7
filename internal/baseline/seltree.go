// Package baseline implements the comparison systems of the paper's
// evaluation: the classic "plan, then deploy" pipeline (selectivity-only
// join ordering followed by placement), the Relaxation algorithm of
// Pietzuch et al. (placement by spring relaxation in a 3-D cost space)
// and the zone-based In-network placement of Ahmad & Çetintemel. All
// operate on the same query/cost model as the core algorithms so costs
// are directly comparable.
package baseline

import (
	"fmt"
	"math"

	"hnp/internal/ads"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// SelectivityTree picks the join order a network-oblivious optimizer
// would: the bushy tree minimizing the total size (rate) of intermediate
// results, ignoring placement entirely. Leaves carry the query's base
// inputs; operator locations are left unassigned (-1).
func SelectivityTree(inputs []query.Input, rt query.RateTable, goal query.Mask) (*query.PlanNode, error) {
	byMask := map[query.Mask]query.Input{}
	for _, in := range inputs {
		if in.Mask.Count() == 1 {
			byMask[in.Mask] = in
		}
	}
	for _, p := range goal.Positions() {
		if _, ok := byMask[1<<uint(p)]; !ok {
			return nil, fmt.Errorf("baseline: no base input for position %d", p)
		}
	}
	cost := map[query.Mask]float64{}
	split := map[query.Mask]query.Mask{}
	var solve func(m query.Mask) float64
	solve = func(m query.Mask) float64 {
		if c, ok := cost[m]; ok {
			return c
		}
		if m.Count() == 1 {
			cost[m] = 0
			return 0
		}
		low := m & -m
		best := math.MaxFloat64
		var bestSplit query.Mask
		for m1 := (m - 1) & m; m1 > 0; m1 = (m1 - 1) & m {
			if m1&low == 0 {
				continue
			}
			m2 := m ^ m1
			if c := solve(m1) + solve(m2) + rt.Rate(m); c < best {
				best, bestSplit = c, m1
			}
		}
		cost[m], split[m] = best, bestSplit
		return best
	}
	solve(goal)

	var build func(m query.Mask) *query.PlanNode
	build = func(m query.Mask) *query.PlanNode {
		if m.Count() == 1 {
			return query.Leaf(byMask[m])
		}
		l := build(split[m])
		r := build(m ^ split[m])
		return query.Join(l, r, -1, rt.Rate(m))
	}
	return build(goal), nil
}

// SelectivityTreeLeftDeep is SelectivityTree restricted to left-deep
// shapes (every join's right child is a base stream), the plan space of
// classic System-R style optimizers. It exists for the bushy-vs-left-deep
// ablation benchmark.
func SelectivityTreeLeftDeep(inputs []query.Input, rt query.RateTable, goal query.Mask) (*query.PlanNode, error) {
	byMask := map[query.Mask]query.Input{}
	for _, in := range inputs {
		if in.Mask.Count() == 1 {
			byMask[in.Mask] = in
		}
	}
	for _, p := range goal.Positions() {
		if _, ok := byMask[1<<uint(p)]; !ok {
			return nil, fmt.Errorf("baseline: no base input for position %d", p)
		}
	}
	cost := map[query.Mask]float64{}
	last := map[query.Mask]query.Mask{} // the singleton joined last
	var solve func(m query.Mask) float64
	solve = func(m query.Mask) float64 {
		if c, ok := cost[m]; ok {
			return c
		}
		if m.Count() == 1 {
			cost[m] = 0
			return 0
		}
		best := math.MaxFloat64
		var bestLast query.Mask
		for _, p := range m.Positions() {
			single := query.Mask(1) << uint(p)
			rest := m ^ single
			if rest == 0 {
				continue
			}
			if c := solve(rest) + rt.Rate(m); c < best {
				best, bestLast = c, single
			}
		}
		cost[m], last[m] = best, bestLast
		return best
	}
	solve(goal)

	var build func(m query.Mask) *query.PlanNode
	build = func(m query.Mask) *query.PlanNode {
		if m.Count() == 1 {
			return query.Leaf(byMask[m])
		}
		single := last[m]
		l := build(m ^ single)
		r := query.Leaf(byMask[single])
		return query.Join(l, r, -1, rt.Rate(m))
	}
	return build(goal), nil
}

// fixedChoice records how a subtree's output is realized for one
// destination site: as a fresh operator at site index u, or by reusing a
// derived stream at adLoc (adLoc also encodes plain leaves).
type fixedChoice struct {
	op    bool
	u     int
	adLoc netgraph.NodeID
}

// fixedDP carries the per-node placement tables for PlaceFixedTree.
type fixedDP struct {
	sites []netgraph.NodeID
	dist  query.DistFunc
	q     *query.Query
	reg   *ads.Registry
	avail map[*query.PlanNode][]float64
	pick  map[*query.PlanNode][]fixedChoice
	op    map[*query.PlanNode][]float64
}

func (d *fixedDP) adsOf(m query.Mask) []ads.Ad {
	if d.reg == nil || m.Count() < 2 {
		return nil
	}
	return d.reg.Lookup(d.q.SigOf(m))
}

// eval fills avail/pick/op for node n bottom-up: avail[n][s] is the
// cheapest way to have n's output at sites[s].
func (d *fixedDP) eval(n *query.PlanNode) {
	m := len(d.sites)
	avail := make([]float64, m)
	pick := make([]fixedChoice, m)
	if n.IsLeaf() {
		for s, sv := range d.sites {
			avail[s] = n.Rate * d.dist(n.Loc, sv)
			pick[s] = fixedChoice{adLoc: n.Loc}
		}
		d.avail[n], d.pick[n] = avail, pick
		return
	}
	d.eval(n.L)
	d.eval(n.R)
	opCost := make([]float64, m)
	for s := range d.sites {
		opCost[s] = d.avail[n.L][s] + d.avail[n.R][s]
	}
	for s, sv := range d.sites {
		best, bu := math.MaxFloat64, -1
		for u, uv := range d.sites {
			if c := opCost[u] + n.Rate*d.dist(uv, sv); c < best {
				best, bu = c, u
			}
		}
		avail[s], pick[s] = best, fixedChoice{op: true, u: bu}
		for _, ad := range d.adsOf(n.Mask) {
			if c := n.Rate * d.dist(ad.Node, sv); c < avail[s] {
				avail[s], pick[s] = c, fixedChoice{adLoc: ad.Node}
			}
		}
	}
	d.avail[n], d.pick[n], d.op[n] = avail, pick, opCost
}

// rebuild materializes the placed copy of subtree n given the choice that
// realizes it.
func (d *fixedDP) rebuild(n *query.PlanNode, c fixedChoice) *query.PlanNode {
	if !c.op {
		if n.IsLeaf() {
			return query.Leaf(*n.In)
		}
		return query.Leaf(query.Input{
			Mask: n.Mask, Rate: n.Rate, Loc: c.adLoc, Derived: true, Sig: d.q.SigOf(n.Mask),
		})
	}
	l := d.rebuild(n.L, d.pick[n.L][c.u])
	r := d.rebuild(n.R, d.pick[n.R][c.u])
	return query.Join(l, r, d.sites[c.u], n.Rate)
}

// PlaceFixedTree assigns every operator of a fixed join tree to a site,
// minimizing communication cost — the optimal "deploy" phase for a
// network-oblivious plan. When a registry is given, any subtree whose
// signature is advertised may instead be replaced by the derived stream
// (reuse after planning, the best a phased approach can do). The input
// tree is not modified; a placed copy and its cost including delivery to
// the sink are returned.
func PlaceFixedTree(tree *query.PlanNode, q *query.Query, sites []netgraph.NodeID,
	dist query.DistFunc, sink netgraph.NodeID, reg *ads.Registry) (*query.PlanNode, float64, error) {
	if len(sites) == 0 {
		return nil, 0, fmt.Errorf("baseline: no sites")
	}
	d := &fixedDP{
		sites: sites, dist: dist, q: q, reg: reg,
		avail: map[*query.PlanNode][]float64{},
		pick:  map[*query.PlanNode][]fixedChoice{},
		op:    map[*query.PlanNode][]float64{},
	}
	d.eval(tree)

	best := math.MaxFloat64
	var bestChoice fixedChoice
	if tree.IsLeaf() {
		best = tree.Rate * dist(tree.Loc, sink)
		bestChoice = fixedChoice{adLoc: tree.Loc}
	} else {
		for u, uv := range sites {
			if c := d.op[tree][u] + tree.Rate*dist(uv, sink); c < best {
				best, bestChoice = c, fixedChoice{op: true, u: u}
			}
		}
		for _, ad := range d.adsOf(tree.Mask) {
			if c := tree.Rate * dist(ad.Node, sink); c < best {
				best, bestChoice = c, fixedChoice{adLoc: ad.Node}
			}
		}
	}
	placed := d.rebuild(tree, bestChoice)
	return placed, best, nil
}

// AllNodes lists every node of a graph as a candidate site slice.
func AllNodes(g *netgraph.Graph) []netgraph.NodeID {
	out := make([]netgraph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = netgraph.NodeID(i)
	}
	return out
}
