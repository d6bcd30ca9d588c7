package iflow

import (
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// FailNode on a node hosting a join, neither a source nor the sink, kills
// that join and reports its query. The plan is built by hand, with the
// joins at nodes 2 and 17 away from the sources (4, 20, 28) and the sink
// (9): the planner almost always colocates operators with endpoints.
func TestFailNodeKillsOperatorsAndReportsQueries(t *testing.T) {
	w := makeTestWorld(t, 14)
	la := query.Leaf(query.Input{Mask: 1, Rate: 20, Loc: 4, Sig: w.q.SigOf(1)})
	lb := query.Leaf(query.Input{Mask: 2, Rate: 15, Loc: 20, Sig: w.q.SigOf(2)})
	lc := query.Leaf(query.Input{Mask: 4, Rate: 10, Loc: 28, Sig: w.q.SigOf(4)})
	ab := query.Join(la, lb, 2, 15)
	plan := query.Join(ab, lc, 17, 7.5)
	rt := New(w.g, DefaultConfig(), 31)
	if err := rt.Deploy(w.q, plan, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10)
	const victim = netgraph.NodeID(2)
	if rt.Operator(w.q.SigOf(ab.Mask), victim) == nil {
		t.Fatalf("no join running at node %d", victim)
	}
	before := rt.NumOperators()
	affected := rt.FailNode(victim)
	if len(affected) != 1 || affected[0] != w.q.ID {
		t.Fatalf("affected = %v", affected)
	}
	if rt.NumOperators() >= before || rt.Operator(w.q.SigOf(ab.Mask), victim) != nil {
		t.Errorf("the join at node %d survived its node: %d operators before, %d after",
			victim, before, rt.NumOperators())
	}
	// Simulation keeps running without the dead operators (tuples to them
	// are dropped, no panic).
	rt.RunFor(10)
	// Failing an empty node affects nothing.
	if got := rt.FailNode(victim); got != nil {
		t.Errorf("second failure reported %v", got)
	}
}
