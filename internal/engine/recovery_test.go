package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// recoveryWorld is a 32-node transit-stub network with streams A@4, B@20
// and C@28 under a runtime-backed engine, and query 0 joining all three
// for a sink at node 9.
type recoveryWorld struct {
	*Engine
	q *query.Query
}

func newRecoveryWorld(t *testing.T, seed, rtSeed int64, until float64) recoveryWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(32, rng)
	h, err := hierarchy.Build(g, g.ShortestPaths(netgraph.MetricCost), 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog(0.05)
	a, b, c := cat.Add("A", 20, 4), cat.Add("B", 15, 20), cat.Add("C", 10, 28)
	q, err := query.NewQuery(0, []query.StreamID{a, b, c}, 9)
	if err != nil {
		t.Fatal(err)
	}
	return recoveryWorld{NewEngine(NewSystem(g, h, cat, obs.NewRegistry()), iflow.DefaultConfig(), rtSeed, until), q}
}

// topDown re-plans with Top-Down against the surviving network, offered
// no advertisements.
func (w recoveryWorld) topDown(q *query.Query) (*query.PlanNode, error) {
	res, err := w.PlanQuery(q, AlgoTopDown, nil)
	return res.Plan, err
}

// run deploys plan for q, or Top-Down's plan when plan is nil.
func (w recoveryWorld) run(t *testing.T, q *query.Query, plan *query.PlanNode) *query.PlanNode {
	t.Helper()
	if plan == nil {
		var err error
		if plan, err = w.topDown(q); err != nil {
			t.Fatal(err)
		}
	}
	d := Deployment{Query: q}
	d.Plan = plan
	if err := w.Deploy(d); err != nil {
		t.Fatal(err)
	}
	return plan
}

// spreadPlan hand-builds a plan for query 0 that pins its two joins at
// nodes 2 and 17 — away from the sources (4, 20, 28) and the sink (9) — so
// a test can fail a pure operator node deterministically (the planner
// almost always colocates operators with endpoints).
func (w recoveryWorld) spreadPlan() *query.PlanNode {
	la := query.Leaf(query.Input{Mask: 1, Rate: 20, Loc: 4, Sig: w.q.SigOf(1)})
	lb := query.Leaf(query.Input{Mask: 2, Rate: 15, Loc: 20, Sig: w.q.SigOf(2)})
	lc := query.Leaf(query.Input{Mask: 4, Rate: 10, Loc: 28, Sig: w.q.SigOf(4)})
	return query.Join(query.Join(la, lb, 2, 15), lc, 17, 7.5)
}

// refuseReplan is a re-planner FailNode must never ask: the query it
// would re-plan has a dead sink or source.
func refuseReplan(t *testing.T) func(*query.Query) (*query.PlanNode, error) {
	return func(q *query.Query) (*query.PlanNode, error) {
		t.Errorf("FailNode asked to re-plan query %d around a dead endpoint", q.ID)
		return nil, errors.New("re-planned around a dead endpoint")
	}
}

// avoids fails the test when a running plan places an operator on a
// dead node.
func (w recoveryWorld) avoids(t *testing.T, qid int, dead ...netgraph.NodeID) {
	t.Helper()
	for _, op := range w.RT.DeployedPlan(qid).Operators() {
		if slices.Contains(dead, op.Loc) {
			t.Errorf("recovered plan of query %d still uses failed node %d", qid, op.Loc)
		}
	}
}

func (w recoveryWorld) audit(t *testing.T, step string) {
	t.Helper()
	if err := w.Audit(); err != nil {
		t.Fatalf("audit after %s: %v", step, err)
	}
}

// TestDownReportsSinkThenSources holds Engine.Down to its order: the
// sink first, then each base source in q.Sources order, each with its
// message; nil once every endpoint is live.
func TestDownReportsSinkThenSources(t *testing.T) {
	for _, c := range []struct {
		down []netgraph.NodeID
		want string
	}{
		{nil, ""},
		{[]netgraph.NodeID{9}, "sink node 9 is down"},
		{[]netgraph.NodeID{28, 4, 9}, "sink node 9 is down"},
		{[]netgraph.NodeID{28, 4}, "source node 4 of stream 0 is down"},
		{[]netgraph.NodeID{28, 20}, "source node 20 of stream 1 is down"},
		{[]netgraph.NodeID{28}, "source node 28 of stream 2 is down"},
	} {
		w := newRecoveryWorld(t, 15, 32, 10)
		for _, v := range c.down {
			if err := w.Hierarchy.RemoveNode(v); err != nil {
				t.Fatal(err)
			}
		}
		got := ""
		if err := w.Down(w.q); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("down %v: Down = %q, want %q", c.down, got, c.want)
		}
	}
}

// A failed operator node is re-planned around: the recovered plan avoids
// it, deliveries resume, and the delivery counters carry across.
func TestFailNodeRestoresDelivery(t *testing.T) {
	const horizon = 400.0
	w := newRecoveryWorld(t, 15, 32, horizon)
	w.run(t, w.q, w.spreadPlan())
	w.RT.RunFor(50)
	delivered := w.RT.Sink(w.q.ID).Tuples
	if delivered == 0 {
		t.Fatal("nothing delivered before failure")
	}
	victim := netgraph.NodeID(2) // hosts the first join
	rec, err := w.FailNode(victim, w.topDown)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Affected, []int{w.q.ID}) || len(rec.Failed) != 0 || len(rec.Recovered) != 1 {
		t.Fatalf("recovery %+v, want query %d affected and recovered", rec, w.q.ID)
	}
	w.avoids(t, w.q.ID, victim)
	if got := w.RT.Sink(w.q.ID).Tuples; got != delivered {
		t.Errorf("recovery did not carry the delivery counter: %d -> %d", delivered, got)
	}
	w.RT.RunFor(200)
	if after := w.RT.Sink(w.q.ID).Tuples; after <= delivered {
		t.Errorf("no deliveries after recovery: %d -> %d", delivered, after)
	}
	w.audit(t, "recovery")
}

// A query that cannot be re-planned is reported failed and leaves the
// books: a dead source is refused before the re-planner is asked, and a
// re-planner's error fails the query just the same.
func TestFailNodeReportsUnplannable(t *testing.T) {
	w := newRecoveryWorld(t, 16, 33, 100)
	w.run(t, w.q, nil)
	src := w.Catalog.Stream(w.q.Sources[0]).Source
	rec, err := w.FailNode(src, refuseReplan(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Affected) == 0 {
		t.Fatal("source failure affected nothing")
	}
	if len(rec.Recovered) != 0 || len(rec.Failed) != 1 {
		t.Errorf("source failure: %+v, want the query failed", rec)
	}
	w.audit(t, "source failure")

	w = newRecoveryWorld(t, 16, 33, 100)
	w.run(t, w.q, w.spreadPlan())
	rec, err = w.FailNode(2, func(*query.Query) (*query.PlanNode, error) {
		return nil, errors.New("no plan")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Recovered) != 0 || !slices.Equal(rec.Failed, []int{w.q.ID}) {
		t.Errorf("unplannable recovery: %+v, want query %d failed", rec, w.q.ID)
	}
	if n := len(w.RT.DeployedQueries()); n != 0 {
		t.Errorf("%d queries still deployed after a failed recovery", n)
	}
	w.audit(t, "failed re-plan")
}

// TestFailNodeSharedOperator fails a node whose operators feed two
// deployed queries at once: both must be reported affected, recovery must
// restore both, and shared-operator refcounts must survive the round trip
// (the runtime audit checks holds against refs).
func TestFailNodeSharedOperator(t *testing.T) {
	const horizon = 300.0
	w := newRecoveryWorld(t, 14, 51, horizon)
	plan := w.spreadPlan()
	// Second query over the same streams with the same sink: its plan is
	// identical, so every operator is shared with query 0.
	q2, err := query.NewQuery(1, w.q.Sources, w.q.Sink)
	if err != nil {
		t.Fatal(err)
	}
	w.run(t, w.q, plan)
	w.run(t, q2, plan)
	w.RT.RunFor(20)
	w.audit(t, "two deployments of one plan")
	victim := netgraph.NodeID(2) // hosts the shared first join
	rec, err := w.FailNode(victim, w.topDown)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Affected, []int{0, 1}) {
		t.Fatalf("shared-operator failure affected %v, want [0 1]", rec.Affected)
	}
	if len(rec.Failed) != 0 || len(rec.Recovered) != 2 {
		t.Fatalf("recovered=%v failed=%v", rec.Recovered, rec.Failed)
	}
	w.audit(t, "shared recovery")
	before0, before1 := w.RT.Sink(0).Tuples, w.RT.Sink(1).Tuples
	w.RT.RunFor(150)
	if w.RT.Sink(0).Tuples <= before0 || w.RT.Sink(1).Tuples <= before1 {
		t.Errorf("deliveries stalled after shared recovery: q0 %d->%d q1 %d->%d",
			before0, w.RT.Sink(0).Tuples, before1, w.RT.Sink(1).Tuples)
	}
	w.audit(t, "run after shared recovery")
}

// TestFailNodeSinkNode fails the node hosting a query's SINK. No operator
// may live there, but the consumer is gone: the query must be reported
// affected and torn down (the re-planner is not asked about a dead sink),
// leaving no subscription still delivering to it.
func TestFailNodeSinkNode(t *testing.T) {
	w := newRecoveryWorld(t, 15, 52, 300)
	plan := w.run(t, w.q, nil)
	w.RT.RunFor(20)
	// Make sure this seed's sink is not colocated with any operator, so the
	// failure hits only the consumer.
	for _, op := range plan.Operators() {
		if op.Loc == w.q.Sink {
			t.Skip("plan colocates an operator with the sink on this seed")
		}
	}
	rec, err := w.FailNode(w.q.Sink, refuseReplan(t))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Affected, []int{w.q.ID}) {
		t.Fatalf("sink failure affected %v, want [%d]", rec.Affected, w.q.ID)
	}
	if len(rec.Recovered) != 0 || !slices.Equal(rec.Failed, []int{w.q.ID}) {
		t.Fatalf("recovered=%v failed=%v", rec.Recovered, rec.Failed)
	}
	if got := w.RT.DeployedQueries(); len(got) != 0 {
		t.Fatalf("query still deployed after sink death: %v", got)
	}
	w.audit(t, "sink failure")
	// The stream must actually stop: no tuple may settle at the dead sink
	// from here on.
	delivered := w.RT.Sink(w.q.ID).Tuples
	w.RT.RunFor(100)
	if got := w.RT.Sink(w.q.ID).Tuples; got != delivered {
		t.Errorf("dead sink kept receiving: %d -> %d", delivered, got)
	}
	w.audit(t, "run after sink failure")
}

// TestDoubleFailureBeforeRecovery crashes two nodes back to back before
// any recovery runs: the first crash reaches only the runtime and the
// hierarchy, so the second must cope with subscriptions already swept by
// the first. FailNode's one recovery pass then restores the query around
// both.
func TestDoubleFailureBeforeRecovery(t *testing.T) {
	const horizon = 300.0
	w := newRecoveryWorld(t, 14, 53, horizon)
	w.run(t, w.q, w.spreadPlan())
	w.RT.RunFor(20)
	// The hand-built plan pins its joins at two pure operator nodes.
	v1, v2 := netgraph.NodeID(2), netgraph.NodeID(17)
	if a1 := w.RT.FailNode(v1); !slices.Equal(a1, []int{w.q.ID}) {
		t.Fatalf("first failure affected %v", a1)
	}
	if err := w.Hierarchy.RemoveNode(v1); err != nil {
		t.Fatal(err)
	}
	rec, err := w.FailNode(v2, w.topDown)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Affected, []int{w.q.ID}) {
		t.Fatalf("second failure affected %v", rec.Affected)
	}
	if len(rec.Failed) != 0 || len(rec.Recovered) != 1 {
		t.Fatalf("recovered=%v failed=%v", rec.Recovered, rec.Failed)
	}
	w.avoids(t, w.q.ID, v1, v2)
	w.audit(t, "double-failure recovery")
	before := w.RT.Sink(w.q.ID).Tuples
	w.RT.RunFor(150)
	if got := w.RT.Sink(w.q.ID).Tuples; got <= before {
		t.Errorf("deliveries stalled after double-failure recovery: %d -> %d", before, got)
	}
	w.audit(t, "run after double-failure recovery")
}
