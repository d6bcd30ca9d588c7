package query

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"hnp/internal/netgraph"
)

// lineDist is the distance on an integer line, a handy exact DistFunc.
func lineDist(a, b netgraph.NodeID) float64 { return math.Abs(float64(a - b)) }

func samplePlan() *PlanNode {
	// Streams s0@0 (rate 10), s1@4 (rate 20); join at node 2, rate 5.
	l0 := Leaf(Input{Mask: 0b01, Rate: 10, Loc: 0, Sig: "0"})
	l1 := Leaf(Input{Mask: 0b10, Rate: 20, Loc: 4, Sig: "1"})
	return Join(l0, l1, 2, 5)
}

func TestPlanCost(t *testing.T) {
	p := samplePlan()
	// Internal: 10*|0-2| + 20*|4-2| = 20+40 = 60.
	if got := p.InternalCost(lineDist); got != 60 {
		t.Errorf("InternalCost = %g, want 60", got)
	}
	// Delivery to sink at 6: 5*|2-6| = 20.
	if got := p.Cost(lineDist, 6); got != 80 {
		t.Errorf("Cost = %g, want 80", got)
	}
}

func TestLeafCost(t *testing.T) {
	l := Leaf(Input{Mask: 1, Rate: 7, Loc: 3, Sig: "0"})
	if l.InternalCost(lineDist) != 0 {
		t.Error("leaf internal cost != 0")
	}
	if got := l.Cost(lineDist, 0); got != 21 {
		t.Errorf("leaf cost = %g, want 21", got)
	}
}

func TestDerivedLeafHasNoUpstreamCost(t *testing.T) {
	// A derived input covering two positions behaves exactly like a leaf:
	// its upstream computation is already paid for.
	d := Leaf(Input{Mask: 0b11, Rate: 5, Loc: 1, Derived: true, Sig: "0|1"})
	l2 := Leaf(Input{Mask: 0b100, Rate: 3, Loc: 9, Sig: "2"})
	p := Join(d, l2, 5, 1)
	// 5*|1-5| + 3*|9-5| = 20+12 = 32.
	if got := p.InternalCost(lineDist); got != 32 {
		t.Errorf("InternalCost = %g, want 32", got)
	}
}

func TestValidate(t *testing.T) {
	p := samplePlan()
	if err := p.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := Join(Leaf(Input{Mask: 0b01, Rate: 1, Loc: 0}), Leaf(Input{Mask: 0b01, Rate: 1, Loc: 1}), 0, 1)
	if err := bad.Validate(); err == nil {
		t.Error("overlapping masks accepted")
	}
	wrongMask := samplePlan()
	wrongMask.Mask = 0b111
	if err := wrongMask.Validate(); err == nil {
		t.Error("wrong parent mask accepted")
	}
	leafBad := Leaf(Input{Mask: 0b01, Rate: 1, Loc: 0})
	leafBad.Mask = 0b10
	if err := leafBad.Validate(); err == nil {
		t.Error("leaf/input mask mismatch accepted")
	}
	halfJoin := &PlanNode{Mask: 0b11, L: Leaf(Input{Mask: 0b01})}
	if err := halfJoin.Validate(); err == nil {
		t.Error("join with one child accepted")
	}
}

func TestOperatorsAndLeaves(t *testing.T) {
	p := samplePlan()
	ops := p.Operators()
	if len(ops) != 1 || ops[0] != p {
		t.Errorf("Operators = %v", ops)
	}
	ls := p.Leaves()
	if len(ls) != 2 || !ls[0].IsLeaf() || !ls[1].IsLeaf() {
		t.Errorf("Leaves = %v", ls)
	}
	if ls[0].In.Sig != "0" || ls[1].In.Sig != "1" {
		t.Error("leaf order not left-to-right")
	}
	// Deeper tree: ((s0 ⋈ s1) ⋈ s2) has two operators in post-order.
	p2 := Join(p, Leaf(Input{Mask: 0b100, Rate: 1, Loc: 0, Sig: "2"}), 1, 1)
	ops2 := p2.Operators()
	if len(ops2) != 2 || ops2[1] != p2 || ops2[0] != p {
		t.Errorf("post-order wrong: %v", ops2)
	}
}

func TestPlanString(t *testing.T) {
	s := samplePlan().String()
	for _, frag := range []string{"s[0]@0", "s[1]@4", "⋈@2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
	d := Leaf(Input{Mask: 1, Rate: 1, Loc: 2, Derived: true, Sig: "5"})
	if !strings.Contains(d.String(), "d[5]@2") {
		t.Errorf("derived leaf rendered %q", d.String())
	}
}

func TestUnaryPlanNode(t *testing.T) {
	child := samplePlan() // join at node 2, rate 5
	agg := NewUnary(child, UnarySpec{
		Agg: AggSpec{Fn: "count", Window: 10, OutRate: 0.5},
		Sig: "0|1@agg:count:10",
	}, 3, 0.5)
	if !agg.IsUnary() || agg.IsLeaf() {
		t.Fatal("unary flags wrong")
	}
	if err := agg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Internal: join internals (60) + join output to agg: 5*|2-3| = 65.
	if got := agg.InternalCost(lineDist); got != 65 {
		t.Errorf("InternalCost = %g, want 65", got)
	}
	// Delivery: 0.5*|3-6| = 1.5.
	if got := agg.Cost(lineDist, 6); got != 66.5 {
		t.Errorf("Cost = %g, want 66.5", got)
	}
	if agg.InputRate() != 5 {
		t.Errorf("InputRate = %g", agg.InputRate())
	}
	ops := agg.Operators()
	if len(ops) != 2 || ops[1] != agg {
		t.Errorf("Operators = %v", ops)
	}
	if !strings.Contains(agg.String(), "agg:count:10@3") {
		t.Errorf("String = %q", agg.String())
	}
	// Broken unaries rejected.
	bad := NewUnary(child, UnarySpec{}, 3, 1)
	bad.R = samplePlan()
	if err := bad.Validate(); err == nil {
		t.Error("unary with two children accepted")
	}
	bad2 := NewUnary(child, UnarySpec{}, 3, 1)
	bad2.Mask = 0b100
	if err := bad2.Validate(); err == nil {
		t.Error("unary mask mismatch accepted")
	}
}

// TestInputSize: on 64-bit platforms an Input is 64 bytes, one size class
// below the 72 it took with Derived after Loc — per plan leaf and per
// tdPlanner.ins slab entry.
func TestInputSize(t *testing.T) {
	if got := unsafe.Sizeof(Input{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 64 {
		t.Errorf("unsafe.Sizeof(Input{}) = %d, want 64", got)
	}
}
