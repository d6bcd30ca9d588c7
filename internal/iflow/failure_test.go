package iflow

import (
	"testing"

	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
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

func TestRecoverQueriesRestoresDelivery(t *testing.T) {
	w := makeTestWorld(t, 15)
	rt := New(w.g, DefaultConfig(), 32)
	const horizon = 400.0
	if err := rt.Deploy(w.q, w.plan, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(50)
	delivered := rt.Sink(w.q.ID).Tuples
	if delivered == 0 {
		t.Fatal("nothing delivered before failure")
	}
	victim := opNode(w)
	if victim < 0 {
		t.Skip("plan colocates all operators with endpoints on this seed")
	}

	affected := rt.FailNode(victim)
	// The failed node also leaves the hierarchy (backup coordinator
	// promotion), so new plans avoid it.
	if err := w.h.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	replan := func(q *query.Query) (*query.PlanNode, error) {
		res, err := core.TopDown(w.h, w.cat, q, nil)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
	recovered, failed, err := rt.RecoverQueries(affected, w.cat, replan, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered=%v failed=%v", recovered, failed)
	}
	// The new plan avoids the dead node.
	for _, op := range rt.DeployedPlan(w.q.ID).Operators() {
		if op.Loc == victim {
			t.Error("recovered plan still uses the failed node")
		}
	}
	rt.RunFor(200)
	after := rt.Sink(w.q.ID).Tuples
	if after <= delivered {
		t.Errorf("no deliveries after recovery: %d -> %d", delivered, after)
	}
}

func TestRecoverQueriesReportsUnplannable(t *testing.T) {
	w := makeTestWorld(t, 16)
	rt := New(w.g, DefaultConfig(), 33)
	if err := rt.Deploy(w.q, w.plan, w.cat, 100); err != nil {
		t.Fatal(err)
	}
	// Fail a SOURCE node: the stream is gone and replanning cannot succeed.
	srcNode := w.cat.Stream(w.q.Sources[0]).Source
	affected := rt.FailNode(srcNode)
	if len(affected) == 0 {
		t.Fatal("source failure affected nothing")
	}
	replan := func(q *query.Query) (*query.PlanNode, error) {
		return nil, errSourceDead
	}
	recovered, failed, err := rt.RecoverQueries(affected, w.cat, replan, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(failed) != 1 {
		t.Errorf("recovered=%v failed=%v", recovered, failed)
	}
	// Unknown query id errors.
	if _, _, err := rt.RecoverQueries([]int{42}, w.cat, replan, 100); err == nil {
		t.Error("unknown query accepted")
	}
}

var errSourceDead = errSentinel("source node failed")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// spreadPlan hand-builds a plan for the test world's query that pins its
// two joins at nodes 2 and 17 — away from the sources (4, 20, 28) and the
// sink (9) — so failure tests can target a pure operator node
// deterministically (the planner almost always colocates operators with
// endpoints, which makes planner-produced plans useless here).
func spreadPlan(w *testWorld) *query.PlanNode {
	la := query.Leaf(query.Input{Mask: 1, Rate: 20, Loc: 4, Sig: w.q.SigOf(1)})
	lb := query.Leaf(query.Input{Mask: 2, Rate: 15, Loc: 20, Sig: w.q.SigOf(2)})
	lc := query.Leaf(query.Input{Mask: 4, Rate: 10, Loc: 28, Sig: w.q.SigOf(4)})
	j1 := query.Join(la, lb, 2, 15)
	return query.Join(j1, lc, 17, 7.5)
}

// TestFailNodeSharedOperator fails a node whose operators feed two
// deployed queries at once: both must be reported affected, recovery must
// restore both, and shared-operator refcounts must survive the round trip
// (the runtime audit checks holds against refs).
func TestFailNodeSharedOperator(t *testing.T) {
	w := makeTestWorld(t, 14)
	rt := New(w.g, DefaultConfig(), 51)
	const horizon = 300.0
	plan := spreadPlan(w)
	// Second query over the same streams with the same sink: its plan is
	// identical, so every operator is shared with query 0.
	q2, err := query.NewQuery(1, w.q.Sources, w.q.Sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(w.q, plan, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(q2, plan, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20)
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	victim := netgraph.NodeID(2) // hosts the shared first join
	affected := rt.FailNode(victim)
	if len(affected) != 2 || affected[0] != 0 || affected[1] != 1 {
		t.Fatalf("shared-operator failure affected %v, want [0 1]", affected)
	}
	if err := w.h.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	replan := func(q *query.Query) (*query.PlanNode, error) {
		res, err := core.TopDown(w.h, w.cat, q, nil)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
	recovered, failed, err := rt.RecoverQueries(affected, w.cat, replan, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 || len(recovered) != 2 {
		t.Fatalf("recovered=%v failed=%v", recovered, failed)
	}
	live := func(v netgraph.NodeID) bool { return v != victim }
	if err := rt.CheckInvariants(live); err != nil {
		t.Fatal(err)
	}
	before0, before1 := rt.Sink(0).Tuples, rt.Sink(1).Tuples
	rt.RunFor(150)
	if rt.Sink(0).Tuples <= before0 || rt.Sink(1).Tuples <= before1 {
		t.Errorf("deliveries stalled after shared recovery: q0 %d->%d q1 %d->%d",
			before0, rt.Sink(0).Tuples, before1, rt.Sink(1).Tuples)
	}
}

// TestFailNodeSinkNode fails the node hosting a query's SINK. No operator
// may live there, but the consumer is gone: the query must be reported
// affected, and recovery must tear it down (re-planning refuses a dead
// sink) leaving no subscription still delivering to it.
func TestFailNodeSinkNode(t *testing.T) {
	w := makeTestWorld(t, 15)
	rt := New(w.g, DefaultConfig(), 52)
	if err := rt.Deploy(w.q, w.plan, w.cat, 300); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20)
	// Make sure this seed's sink is not colocated with any operator, so the
	// failure hits only the consumer.
	for _, op := range w.plan.Operators() {
		if op.Loc == w.q.Sink {
			t.Skip("plan colocates an operator with the sink on this seed")
		}
	}
	affected := rt.FailNode(w.q.Sink)
	if len(affected) != 1 || affected[0] != w.q.ID {
		t.Fatalf("sink failure affected %v, want [%d]", affected, w.q.ID)
	}
	if err := w.h.RemoveNode(w.q.Sink); err != nil {
		t.Fatal(err)
	}
	replan := func(q *query.Query) (*query.PlanNode, error) {
		return nil, errSentinel("sink node is down")
	}
	recovered, failed, err := rt.RecoverQueries(affected, w.cat, replan, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(failed) != 1 || failed[0] != w.q.ID {
		t.Fatalf("recovered=%v failed=%v", recovered, failed)
	}
	if got := rt.DeployedQueries(); len(got) != 0 {
		t.Fatalf("query still deployed after sink death: %v", got)
	}
	live := func(v netgraph.NodeID) bool { return v != w.q.Sink }
	if err := rt.CheckInvariants(live); err != nil {
		t.Fatal(err)
	}
	// The stream must actually stop: no tuple may settle at the dead sink
	// from here on.
	delivered := rt.Sink(w.q.ID).Tuples
	rt.RunFor(100)
	if got := rt.Sink(w.q.ID).Tuples; got != delivered {
		t.Errorf("dead sink kept receiving: %d -> %d", delivered, got)
	}
}

// TestDoubleFailureBeforeRecovery crashes two nodes back to back before
// any recovery runs — the affected sets overlap and the second failure
// must cope with subscriptions already swept by the first. One recovery
// pass over the union then restores the query.
func TestDoubleFailureBeforeRecovery(t *testing.T) {
	w := makeTestWorld(t, 14)
	rt := New(w.g, DefaultConfig(), 53)
	const horizon = 300.0
	plan := spreadPlan(w)
	if err := rt.Deploy(w.q, plan, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20)
	// The hand-built plan pins its joins at two pure operator nodes.
	v1, v2 := netgraph.NodeID(2), netgraph.NodeID(17)
	a1 := rt.FailNode(v1)
	a2 := rt.FailNode(v2)
	if len(a1) != 1 || a1[0] != w.q.ID {
		t.Fatalf("first failure affected %v", a1)
	}
	if len(a2) != 1 || a2[0] != w.q.ID {
		t.Fatalf("second failure affected %v", a2)
	}
	if err := w.h.RemoveNode(v1); err != nil {
		t.Fatal(err)
	}
	if err := w.h.RemoveNode(v2); err != nil {
		t.Fatal(err)
	}
	// Union of the affected sets, deduplicated: one recovery pass.
	replan := func(q *query.Query) (*query.PlanNode, error) {
		res, err := core.TopDown(w.h, w.cat, q, nil)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
	recovered, failed, err := rt.RecoverQueries([]int{w.q.ID}, w.cat, replan, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 || len(recovered) != 1 {
		t.Fatalf("recovered=%v failed=%v", recovered, failed)
	}
	for _, op := range rt.DeployedPlan(w.q.ID).Operators() {
		if op.Loc == v1 || op.Loc == v2 {
			t.Errorf("recovered plan uses dead node %d", op.Loc)
		}
	}
	live := func(v netgraph.NodeID) bool { return v != v1 && v != v2 }
	if err := rt.CheckInvariants(live); err != nil {
		t.Fatal(err)
	}
	before := rt.Sink(w.q.ID).Tuples
	rt.RunFor(150)
	if got := rt.Sink(w.q.ID).Tuples; got <= before {
		t.Errorf("deliveries stalled after double-failure recovery: %d -> %d", before, got)
	}
}
