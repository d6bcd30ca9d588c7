package core

import (
	"slices"
	"testing"

	"hnp/internal/query"
)

// A view is the maximal connected group of operators on one member;
// pushExternal must stop at exactly the streams crossing its boundary —
// plan leaves and roots of other members' views — in plan order.
func TestSplitComponents(t *testing.T) {
	l0 := query.Leaf(query.Input{Mask: 1, Rate: 1, Loc: 0, Sig: "0"})
	l1 := query.Leaf(query.Input{Mask: 2, Rate: 1, Loc: 1, Sig: "1"})
	l2 := query.Leaf(query.Input{Mask: 4, Rate: 1, Loc: 2, Sig: "2"})
	l3 := query.Leaf(query.Input{Mask: 8, Rate: 1, Loc: 3, Sig: "3"})
	// ((l0 ⋈@A l1) ⋈@A (l2 ⋈@B l3)): two ops at member A, one at member B.
	jB := query.Join(l2, l3, 20, 1)
	jA1 := query.Join(l0, l1, 10, 1)
	root := query.Join(jA1, jB, 10, 1)

	var td tdPlanner
	td.pushExternal(root, root.Loc)
	// Root view externals: l0, l1 (leaves) and jB (other member).
	if want := []*query.PlanNode{l0, l1, jB}; !slices.Equal(td.ext, want) {
		t.Fatalf("root view externals = %v, want %v", td.ext, want)
	}
	td.pushExternal(jB, jB.Loc)
	if want := []*query.PlanNode{l2, l3}; !slices.Equal(td.ext[3:], want) {
		t.Fatalf("B view externals = %v, want %v", td.ext[3:], want)
	}
	if len(td.subs) != len(td.ext) {
		t.Errorf("subs has %d slots for %d externals", len(td.subs), len(td.ext))
	}
}
