package query

import (
	"testing"

	"hnp/internal/netgraph"
)

// diffFixture builds a 4-stream catalog/query and a helper assembling
// left-deep plans with explicit join placements.
type diffFixture struct {
	cat *Catalog
	q   *Query
	rt  RateTable
}

func newDiffFixture(t *testing.T) *diffFixture {
	t.Helper()
	cat := NewCatalog(0.01)
	a := cat.Add("A", 20, 1)
	b := cat.Add("B", 15, 2)
	c := cat.Add("C", 10, 3)
	d := cat.Add("D", 5, 4)
	q, err := NewQuery(0, []StreamID{a, b, c, d}, 9)
	if err != nil {
		t.Fatal(err)
	}
	return &diffFixture{cat: cat, q: q, rt: BuildRates(cat, q)}
}

// leftDeep places the k-1 joins of a left-deep tree at the given nodes.
func (f *diffFixture) leftDeep(joinLocs []netgraph.NodeID) *PlanNode {
	leaf := func(pos int) *PlanNode {
		m := Mask(1 << uint(pos))
		return Leaf(Input{
			Mask: m,
			Rate: f.rt.Rate(m),
			Loc:  f.cat.Stream(f.q.Sources[pos]).Source,
			Sig:  f.q.SigOf(m),
		})
	}
	cur := leaf(0)
	for i := 1; i < f.q.K(); i++ {
		next := Join(cur, leaf(i), joinLocs[i-1], f.rt.Rate(cur.Mask|Mask(1<<uint(i))))
		cur = next
	}
	return cur
}

func TestDiffIdenticalPlans(t *testing.T) {
	f := newDiffFixture(t)
	locs := []netgraph.NodeID{5, 6, 7}
	old, new := f.leftDeep(locs), f.leftDeep(locs)
	d := DiffIR(f.q.IR(old), f.q.IR(new))
	if want := 2*f.q.K() - 1; len(d.Keep) != want {
		t.Errorf("keep=%d, want every operator (%d)", len(d.Keep), want)
	}
	if d.Delta() != 0 || len(d.Move) != 0 || len(d.Rewire) != 0 {
		t.Errorf("identical plans diff non-empty: delta=%d move=%d rewire=%d", d.Delta(), len(d.Move), len(d.Rewire))
	}
}

func TestDiffSinglePlacementChange(t *testing.T) {
	f := newDiffFixture(t)
	old := f.leftDeep([]netgraph.NodeID{5, 6, 7})
	new := f.leftDeep([]netgraph.NodeID{5, 8, 7}) // middle join moves 6 -> 8
	d := DiffIR(f.q.IR(old), f.q.IR(new))
	if want := 2*f.q.K() - 1 - 1; len(d.Keep) != want {
		t.Errorf("keep=%d, want %d", len(d.Keep), want)
	}
	if len(d.Create) != 1 || len(d.Retire) != 1 {
		t.Errorf("delta create=%d retire=%d, want 1/1", len(d.Create), len(d.Retire))
	}
	if len(d.Move) != 1 || d.Move[0].From != 6 || d.Move[0].To != 8 {
		t.Errorf("move=%v, want one move 6->8", d.Move)
	}
	// The root join is kept but its middle-join input changed hosts: it
	// must be rewired.
	rootRef := f.q.Ident(new)
	if len(d.Rewire) != 1 || d.Rewire[0].New.Ref != rootRef {
		t.Errorf("rewire=%v, want exactly the root %v", d.Rewire, rootRef)
	}
	if d.Create[0].Sig() != d.Retire[0].Sig() {
		t.Errorf("moved operator changed signature: %v vs %v", d.Create[0], d.Retire[0])
	}
}

// A plan that consumes a previously computed operator as a derived leaf
// keeps that operator without rewiring it: the leaf does not own the
// upstream wiring.
func TestDiffLeafConsumptionIsNotRewired(t *testing.T) {
	f := newDiffFixture(t)
	old := f.leftDeep([]netgraph.NodeID{5, 6, 7})
	full := f.q.All()
	new := Leaf(Input{
		Mask:    full,
		Rate:    f.rt.Rate(full),
		Loc:     7,
		Derived: true,
		Sig:     f.q.SigOf(full),
	})
	d := DiffIR(f.q.IR(old), f.q.IR(new))
	rootRef := f.q.Ident(old)
	if len(d.Keep) != 1 || d.Keep[0].Old.Ref != rootRef || !d.Keep[0].New.Leaf {
		t.Fatalf("keep=%v, want exactly the old root %v, kept as a leaf", d.Keep, rootRef)
	}
	if len(d.Rewire) != 0 {
		t.Errorf("leaf consumption rewired: %v", d.Rewire)
	}
	if want := 2*f.q.K() - 2; len(d.Retire) != want {
		t.Errorf("retire=%d, want the %d interior/leaf operators below the root", len(d.Retire), want)
	}
}

// Identity must be diff-stable across tree shapes: the same sub-join at
// the same node has the same OpRef regardless of where it sits in the
// tree, and predicates participate in the signature.
func TestIdentStability(t *testing.T) {
	f := newDiffFixture(t)
	p1 := f.leftDeep([]netgraph.NodeID{5, 6, 7})
	p2 := f.leftDeep([]netgraph.NodeID{5, 9, 9})
	// The first join (streams 0⋈1 at node 5) is shared.
	r1, r2 := f.q.Ident(p1.L.L), f.q.Ident(p2.L.L)
	if r1 != r2 {
		t.Errorf("same sub-join, different identities: %v vs %v", r1, r2)
	}
	pq, err := NewQueryPred(1, f.q.Sources, f.q.Sink,
		MustPredSet(Pred{Stream: f.q.Sources[0], Attr: "a", Range: Range{Lo: 0, Hi: 0.5}}))
	if err != nil {
		t.Fatal(err)
	}
	if pq.Ident(p1.L.L) == f.q.Ident(p1.L.L) {
		t.Error("predicated query aliases the predicate-free identity")
	}
}

func TestIRPostOrder(t *testing.T) {
	f := newDiffFixture(t)
	plan := f.leftDeep([]netgraph.NodeID{5, 6, 7})
	ir := f.q.IR(plan)
	if want := 2*f.q.K() - 1; len(ir) != want {
		t.Fatalf("IR has %d ops, want %d", len(ir), want)
	}
	seen := map[OpRef]bool{}
	for _, op := range ir {
		for _, in := range op.Inputs {
			if !seen[in] {
				t.Errorf("op %v listed before its input %v", op.Ref, in)
			}
		}
		seen[op.Ref] = true
	}
	if root := ir[len(ir)-1].Ref; root != f.q.Ident(plan) {
		t.Errorf("last IR op %v is not the root %v", root, f.q.Ident(plan))
	}
}

// The diff lists its entries in the order migration applies and prices
// them: Keep and Retire in old post-order, Create and Rewire in new
// post-order, and a rewire's changed edges added first, then dropped.
func TestDiffOrderAndEdges(t *testing.T) {
	f := newDiffFixture(t)
	old := f.leftDeep([]netgraph.NodeID{5, 6, 7})
	new := f.leftDeep([]netgraph.NodeID{5, 8, 9}) // middle join 6 -> 8, root 7 -> 9
	oldIR, newIR := f.q.IR(old), f.q.IR(new)
	d := DiffIR(oldIR, newIR)
	inNew := map[OpRef]bool{}
	for _, op := range newIR {
		inNew[op.Ref] = true
	}
	var keep, retire []OpRef
	for _, op := range oldIR {
		if inNew[op.Ref] {
			keep = append(keep, op.Ref)
		} else {
			retire = append(retire, op.Ref)
		}
	}
	if len(d.Keep) != len(keep) || len(d.Retire) != len(retire) {
		t.Fatalf("keep=%d retire=%d, want %d/%d", len(d.Keep), len(d.Retire), len(keep), len(retire))
	}
	for i, k := range d.Keep {
		if k.Old.Ref != keep[i] || k.New.Ref != keep[i] {
			t.Errorf("keep[%d] = %v/%v, want %v in old post-order", i, k.Old.Ref, k.New.Ref, keep[i])
		}
		if nop, ok := d.KeptAs(k.Old.Ref); !ok || nop.Node != k.New.Node {
			t.Errorf("KeptAs(%v) = %v, %v; want the new plan's entry", k.Old.Ref, nop.Ref, ok)
		}
	}
	for i, op := range d.Retire {
		if op.Ref != retire[i] {
			t.Errorf("retire[%d] = %v, want %v in old post-order", i, op.Ref, retire[i])
		}
		if _, ok := d.KeptAs(op.Ref); ok {
			t.Errorf("retired %v reported kept", op.Ref)
		}
	}
	if want := []OpRef{f.q.Ident(new.L), f.q.Ident(new)}; len(d.Create) != 2 || d.Create[0].Ref != want[0] || d.Create[1].Ref != want[1] {
		t.Errorf("create = %v, want %v in new post-order", d.Create, want)
	}
	// The only kept join reads the same inputs: nothing is rewired.
	if len(d.Rewire) != 0 {
		t.Errorf("rewire = %v, want none", d.Rewire)
	}

	// Moving only the middle join rewires the kept root: its left input
	// changes host. The edge the new plan adds comes first.
	d = DiffIR(oldIR, f.q.IR(f.leftDeep([]netgraph.NodeID{5, 8, 7})))
	if len(d.Rewire) != 1 {
		t.Fatalf("rewire = %v, want the root", d.Rewire)
	}
	type edge struct {
		in    OpRef
		side  int
		added bool
	}
	var got []edge
	d.Rewire[0].ChangedInputs(func(in OpRef, side int, added bool) { got = append(got, edge{in, side, added}) })
	mid := f.q.SigOf(Mask(7))
	want := []edge{{OpRef{mid, 8}, 0, true}, {OpRef{mid, 6}, 0, false}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("changed inputs %v, want %v", got, want)
	}
}
