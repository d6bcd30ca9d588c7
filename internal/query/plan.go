package query

import (
	"fmt"
	"strings"

	"hnp/internal/netgraph"
)

// DistFunc measures the traversal cost between two physical nodes. The
// optimizers plan against either exact shortest-path costs or the
// hierarchy's per-level estimates.
type DistFunc func(a, b netgraph.NodeID) float64

// Input is a stream available to a planner: either a base stream source,
// or a derived stream (the advertised output of an already-deployed
// operator, reusable at no upstream cost).
type Input struct {
	// Mask is the set of query source positions this input covers. Base
	// inputs cover one position; derived inputs may cover several.
	Mask Mask
	// Derived marks reused operator outputs. It sits in Mask's padding,
	// which keeps an Input at 64 bytes.
	Derived bool
	// Rate is the expected output rate.
	Rate float64
	// Loc is the physical node where the input is materialized.
	Loc netgraph.NodeID
	// Sig is the canonical signature of the covered streams (including
	// the consuming query's predicates).
	Sig string
	// BaseSig, when non-empty, names the weaker materialized stream this
	// input is derived from by containment: the runtime attaches a
	// residual filter at Loc that narrows BaseSig's output to Sig.
	BaseSig string
	// Width is the byte width of one tuple of this input (0 = unknown;
	// costing treats unknown as 1 and the runtime as DefaultTupleWidth).
	Width float64
}

// PlanNode is one node of a deployed operator tree: a leaf consuming an
// Input, or a join of two children placed at a physical node.
type PlanNode struct {
	Mask Mask
	Rate float64
	// Loc is where the node's output is materialized: the input location
	// for leaves, the assigned processing node for joins.
	Loc netgraph.NodeID
	// In is non-nil exactly for leaves.
	In *Input
	// Unary is non-nil for unary operators (aggregations); such nodes use
	// only the L child.
	Unary *UnarySpec
	// L, R are the children of a join node (R is nil under Unary).
	L, R *PlanNode
	// Width is the byte width of one output tuple (0 = unknown; see
	// WidthOr1 and TupleWidth). WidthTable.Stamp fills it after placement.
	Width float64
}

// TupleWidth returns the bytes one output tuple weighs on the wire: the
// stamped width, or DefaultTupleWidth for a width-free plan. The runtime
// meters and the adaptation controller prices transport in these bytes.
func (p *PlanNode) TupleWidth() float64 {
	if p.Width > 0 {
		return p.Width
	}
	return DefaultTupleWidth
}

// WidthOr1 returns the node's output tuple width, degrading to the
// pre-schema unit width when none was stamped, so rate×width costing is
// byte-identical to rate-only costing for width-free plans.
func (p *PlanNode) WidthOr1() float64 {
	if p.Width > 0 {
		return p.Width
	}
	return 1
}

// Leaf builds a leaf plan node from an input.
func Leaf(in Input) *PlanNode {
	cp := in
	return &PlanNode{Mask: in.Mask, Rate: in.Rate, Loc: in.Loc, In: &cp, Width: in.Width}
}

// Join builds a join node over two children, placed at loc with the given
// output rate.
func Join(l, r *PlanNode, loc netgraph.NodeID, rate float64) *PlanNode {
	return &PlanNode{Mask: l.Mask | r.Mask, Rate: rate, Loc: loc, L: l, R: r}
}

// IsLeaf reports whether p consumes an input directly.
func (p *PlanNode) IsLeaf() bool { return p.In != nil }

// IsUnary reports whether p is a unary operator (aggregation).
func (p *PlanNode) IsUnary() bool { return p.Unary != nil }

// InternalCost returns the communication cost per unit time of all
// transfers inside the plan: for every join, each child's output rate
// times its tuple width times the distance from the child's location to
// the join's node. Width-free plans degrade to rate×distance. The final
// delivery to the sink is excluded (see Cost).
func (p *PlanNode) InternalCost(dist DistFunc) float64 {
	if p.IsLeaf() {
		return 0
	}
	if p.IsUnary() {
		return p.L.InternalCost(dist) + p.L.Rate*p.L.WidthOr1()*dist(p.L.Loc, p.Loc)
	}
	c := p.L.InternalCost(dist) + p.R.InternalCost(dist)
	c += p.L.Rate * p.L.WidthOr1() * dist(p.L.Loc, p.Loc)
	c += p.R.Rate * p.R.WidthOr1() * dist(p.R.Loc, p.Loc)
	return c
}

// Cost returns InternalCost plus the cost of delivering the root output to
// the sink.
func (p *PlanNode) Cost(dist DistFunc, sink netgraph.NodeID) float64 {
	return p.InternalCost(dist) + p.Rate*p.WidthOr1()*dist(p.Loc, sink)
}

// PlannedBytes returns the plan's total bytes-on-wire per unit time:
// rate×width summed over every edge that crosses nodes, including the
// final delivery to the sink. This is the analytic counterpart of the
// runtime ledger's TotalBytes rate, and the figure the rewrite pipeline
// is scored on (distance-independent: a byte on a long path and a short
// path both count once).
func (p *PlanNode) PlannedBytes(sink netgraph.NodeID) float64 {
	hop := func(a, b netgraph.NodeID) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	return p.InternalCost(hop) + p.Rate*p.WidthOr1()*hop(p.Loc, sink)
}

// Operators returns all operator nodes (joins and unaries) of the plan in
// post-order.
func (p *PlanNode) Operators() []*PlanNode {
	var out []*PlanNode
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n == nil || n.IsLeaf() {
			return
		}
		walk(n.L)
		walk(n.R)
		out = append(out, n)
	}
	walk(p)
	return out
}

// InputRate returns the total input rate of an operator node: both
// children's rates for a join, the single child's rate for a unary.
func (p *PlanNode) InputRate() float64 {
	if p.IsLeaf() {
		return 0
	}
	if p.IsUnary() {
		return p.L.Rate
	}
	return p.L.Rate + p.R.Rate
}

// Leaves returns all leaf nodes of the plan in left-to-right order.
func (p *PlanNode) Leaves() []*PlanNode {
	var out []*PlanNode
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.L)
		walk(n.R)
	}
	walk(p)
	return out
}

// DerivedLeaves counts the plan's leaves that are satisfied by reused
// (previously advertised) derived streams. A nil plan has none.
func (p *PlanNode) DerivedLeaves() int {
	if p == nil {
		return 0
	}
	if p.IsLeaf() {
		if p.In != nil && p.In.Derived {
			return 1
		}
		return 0
	}
	return p.L.DerivedLeaves() + p.R.DerivedLeaves()
}

// Validate checks structural consistency: children masks are disjoint and
// compose the parent mask, and leaves carry inputs.
func (p *PlanNode) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: no plan")
	}
	if p.IsLeaf() {
		if p.Mask != p.In.Mask {
			return fmt.Errorf("plan: leaf mask %b != input mask %b", p.Mask, p.In.Mask)
		}
		return nil
	}
	if p.IsUnary() {
		if p.L == nil || p.R != nil {
			return fmt.Errorf("plan: unary must have exactly one child")
		}
		if p.Mask != p.L.Mask {
			return fmt.Errorf("plan: unary mask %b != child mask %b", p.Mask, p.L.Mask)
		}
		return p.L.Validate()
	}
	if p.L == nil || p.R == nil {
		return fmt.Errorf("plan: join with missing child")
	}
	if p.L.Mask&p.R.Mask != 0 {
		return fmt.Errorf("plan: overlapping child masks %b and %b", p.L.Mask, p.R.Mask)
	}
	if p.L.Mask|p.R.Mask != p.Mask {
		return fmt.Errorf("plan: children cover %b, node claims %b", p.L.Mask|p.R.Mask, p.Mask)
	}
	if err := p.L.Validate(); err != nil {
		return err
	}
	return p.R.Validate()
}

// String renders the plan as a nested expression with placements, e.g.
// "((s0@3 ⋈@5 s1@4) ⋈@5 s2@9)".
func (p *PlanNode) String() string {
	if p == nil {
		return "(empty: no plan)"
	}
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p *PlanNode) render(b *strings.Builder) {
	if p.IsLeaf() {
		kind := "s"
		if p.In.Derived {
			kind = "d"
		}
		fmt.Fprintf(b, "%s[%s]@%d", kind, p.In.Sig, p.Loc)
		return
	}
	if p.IsUnary() {
		fmt.Fprintf(b, "%s@%d(", p.Unary.Agg.Sig(), p.Loc)
		p.L.render(b)
		b.WriteByte(')')
		return
	}
	b.WriteByte('(')
	p.L.render(b)
	fmt.Fprintf(b, " ⋈@%d ", p.Loc)
	p.R.render(b)
	b.WriteByte(')')
}
