package iflow

import (
	"testing"

	"hnp/internal/netgraph"
)

// opNode returns a node hosting a join operator of the plan that is
// neither a source nor the sink, or -1.
func opNode(w *testWorld) netgraph.NodeID {
	sources := map[netgraph.NodeID]bool{}
	for _, id := range w.q.Sources {
		sources[w.cat.Stream(id).Source] = true
	}
	for _, op := range w.plan.Operators() {
		if !sources[op.Loc] && op.Loc != w.q.Sink {
			return op.Loc
		}
	}
	return -1
}

func TestFailNodeKillsOperatorsAndReportsQueries(t *testing.T) {
	w := makeTestWorld(t, 14)
	rt := New(w.g, DefaultConfig(), 31)
	if err := rt.Deploy(w.q, w.plan, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10)
	victim := opNode(w)
	if victim < 0 {
		t.Skip("plan colocates all operators with endpoints on this seed")
	}
	before := rt.NumOperators()
	affected := rt.FailNode(victim)
	if len(affected) != 1 || affected[0] != w.q.ID {
		t.Fatalf("affected = %v", affected)
	}
	if rt.NumOperators() >= before {
		t.Error("no operators died")
	}
	// Simulation keeps running without the dead operators (tuples to them
	// are dropped, no panic).
	rt.RunFor(10)
	// Failing an empty node affects nothing.
	if got := rt.FailNode(victim); got != nil {
		t.Errorf("second failure reported %v", got)
	}
}
