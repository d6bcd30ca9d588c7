package core

import (
	"fmt"
	"math"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// NaiveSolve solves the same Problem as Solve by brute force: it
// enumerates every exact disjoint input cover of the goal, every (bushy)
// join tree over the chosen inputs, and every assignment of operators to
// sites, evaluating each candidate's cost directly. It returns the best
// plan, its cost, and the number of complete solutions examined. It exists
// to validate the DP and to measure the true exhaustive search on tiny
// instances; its cost is exponential in every dimension.
func NaiveSolve(p Problem) (*query.PlanNode, float64, int64, error) {
	if p.Goal == 0 {
		return nil, 0, 0, fmt.Errorf("core: empty goal")
	}
	var ins []query.Input
	for _, in := range p.Inputs {
		if in.Mask != 0 && in.Mask&p.Goal == in.Mask {
			ins = append(ins, in)
		}
	}
	sites, err := dedupeSites(p.Sites)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(sites) == 0 {
		return nil, 0, 0, fmt.Errorf("core: no candidate sites")
	}

	best := math.MaxFloat64
	var bestPlan *query.PlanNode
	var examined int64

	consider := func(root *query.PlanNode) {
		examined++
		c := root.InternalCost(p.Dist)
		if p.Deliver {
			c += root.Rate * root.WidthOr1() * p.Dist(root.Loc, p.Sink)
		}
		if c < best {
			best, bestPlan = c, root
		}
	}

	// Enumerate exact disjoint covers of the goal.
	var chosen []query.Input
	var covers func(remaining query.Mask)
	covers = func(remaining query.Mask) {
		if remaining == 0 {
			forEachTree(chosen, sites, p.Rates, p.Widths, consider)
			return
		}
		low := remaining & -remaining
		for _, in := range ins {
			if in.Mask&low == 0 || in.Mask&remaining != in.Mask {
				continue
			}
			chosen = append(chosen, in)
			covers(remaining &^ in.Mask)
			chosen = chosen[:len(chosen)-1]
		}
	}
	covers(p.Goal)

	if bestPlan == nil {
		return nil, 0, examined, fmt.Errorf("core: goal %b unachievable from available inputs", p.Goal)
	}
	return bestPlan, best, examined, nil
}

// forEachTree enumerates every bushy join tree over the given inputs and
// every placement of its operators on sites, invoking consider on each
// fully-placed plan.
func forEachTree(inputs []query.Input, sites []netgraph.NodeID, rates query.RateTable, widths query.WidthTable, consider func(*query.PlanNode)) {
	leaves := make([]*query.PlanNode, len(inputs))
	for i, in := range inputs {
		if in.Width == 0 && widths != nil {
			in.Width = widths.Width(in.Mask)
		}
		leaves[i] = query.Leaf(in)
	}
	if len(leaves) == 1 {
		consider(leaves[0])
		return
	}
	forEachShape(leaves, func(shape *treeShape) {
		ops := shape.opCount()
		placeOps(shape, sites, rates, widths, make([]netgraph.NodeID, ops), 0, consider)
	})
}

// treeShape is an unplaced binary tree over leaves.
type treeShape struct {
	leaf *query.PlanNode
	l, r *treeShape
}

func (t *treeShape) opCount() int {
	if t.leaf != nil {
		return 0
	}
	return 1 + t.l.opCount() + t.r.opCount()
}

// forEachShape enumerates all full binary trees over the leaf set using
// the canonical "first leaf goes left" recursion, yielding (2k−3)!! shapes.
func forEachShape(leaves []*query.PlanNode, yield func(*treeShape)) {
	if len(leaves) == 1 {
		yield(&treeShape{leaf: leaves[0]})
		return
	}
	first, rest := leaves[0], leaves[1:]
	n := len(rest)
	// Choose the non-empty proper subset of rest joining first on the left.
	for sub := 0; sub < (1 << uint(n)); sub++ {
		var left, right []*query.PlanNode
		left = append(left, first)
		for i := 0; i < n; i++ {
			if sub&(1<<uint(i)) != 0 {
				left = append(left, rest[i])
			} else {
				right = append(right, rest[i])
			}
		}
		if len(right) == 0 {
			continue
		}
		forEachShape(left, func(ls *treeShape) {
			forEachShape(right, func(rs *treeShape) {
				yield(&treeShape{l: ls, r: rs})
			})
		})
	}
}

// placeOps enumerates site assignments for each operator of the shape.
func placeOps(shape *treeShape, sites []netgraph.NodeID, rates query.RateTable, widths query.WidthTable, slots []netgraph.NodeID, idx int, consider func(*query.PlanNode)) {
	if idx == len(slots) {
		next := 0
		consider(materialize(shape, rates, widths, slots, &next))
		return
	}
	for _, s := range sites {
		slots[idx] = s
		placeOps(shape, sites, rates, widths, slots, idx+1, consider)
	}
}

// materialize turns a shape plus operator placements (assigned in
// post-order) into a PlanNode tree, with join rates from the rate table
// and output widths from the width table (left unset for nil tables).
func materialize(t *treeShape, rates query.RateTable, widths query.WidthTable, slots []netgraph.NodeID, next *int) *query.PlanNode {
	if t.leaf != nil {
		return t.leaf
	}
	l := materialize(t.l, rates, widths, slots, next)
	r := materialize(t.r, rates, widths, slots, next)
	loc := slots[*next]
	*next++
	n := query.Join(l, r, loc, rates.Rate(l.Mask|r.Mask))
	if widths != nil {
		n.Width = widths.Width(n.Mask)
	}
	return n
}
