package iflow

import (
	"math"
	"math/rand"
	"testing"

	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// testWorld builds a small network, catalog and a 3-way query plan via the
// Top-Down optimizer.
type testWorld struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	h     *hierarchy.Hierarchy
	cat   *query.Catalog
	q     *query.Query
	plan  *query.PlanNode
	res   core.Result
}

func makeTestWorld(t *testing.T, seed int64) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(32, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog(0.05)
	a := cat.Add("A", 20, 4)
	b := cat.Add("B", 15, 20)
	c := cat.Add("C", 10, 28)
	q, err := query.NewQuery(0, []query.StreamID{a, b, c}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TopDown(h, cat, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{g, paths, h, cat, q, res.Plan, res}
}

func TestDeployAndRun(t *testing.T) {
	w := makeTestWorld(t, 1)
	rt := New(w.g, DefaultConfig(), 42)
	if err := rt.Deploy(w.q, w.plan, w.cat, 100); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(100)
	sink := rt.Sink(w.q.ID)
	if sink == nil || sink.Tuples == 0 {
		t.Fatalf("no tuples delivered: %+v", sink)
	}
	if rt.TotalCost <= 0 || rt.TotalBytes <= 0 {
		t.Errorf("no transfer accounted: cost=%g bytes=%g", rt.TotalCost, rt.TotalBytes)
	}
	if rt.CostRate() <= 0 {
		t.Error("zero cost rate")
	}
	// Latency is positive and bounded by propagation + window effects.
	if sink.LatencySum <= 0 {
		t.Error("no latency accumulated")
	}
}

func TestDoubleDeployRejected(t *testing.T) {
	w := makeTestWorld(t, 2)
	rt := New(w.g, DefaultConfig(), 1)
	if err := rt.Deploy(w.q, w.plan, w.cat, 10); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(w.q, w.plan, w.cat, 10); err == nil {
		t.Error("double deploy accepted")
	}
}

func TestReuseSharesOperators(t *testing.T) {
	w := makeTestWorld(t, 3)
	rt := New(w.g, DefaultConfig(), 7)
	if err := rt.Deploy(w.q, w.plan, w.cat, 50); err != nil {
		t.Fatal(err)
	}
	opsAfterFirst := rt.NumOperators()

	// Identical query from another sink reusing the root operator.
	q2, err := query.NewQuery(1, w.q.Sources, 15)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := query.BuildRates(w.cat, q2)
	reusedLeaf := query.Leaf(query.Input{
		Mask: q2.All(), Rate: rt2.Rate(q2.All()), Loc: w.plan.Loc,
		Derived: true, Sig: q2.SigOf(q2.All()),
	})
	if err := rt.Deploy(q2, reusedLeaf, w.cat, 50); err != nil {
		t.Fatal(err)
	}
	if rt.NumOperators() != opsAfterFirst {
		t.Errorf("reuse created operators: %d -> %d", opsAfterFirst, rt.NumOperators())
	}
	rt.RunFor(50)
	if rt.Sink(0).Tuples == 0 || rt.Sink(1).Tuples == 0 {
		t.Errorf("deliveries: q0=%d q1=%d", rt.Sink(0).Tuples, rt.Sink(1).Tuples)
	}
	// Both sinks see the same logical stream; counts differ only by
	// in-flight boundary effects.
	d := math.Abs(float64(rt.Sink(0).Tuples - rt.Sink(1).Tuples))
	if d > 0.2*float64(rt.Sink(0).Tuples)+5 {
		t.Errorf("shared stream diverged: %d vs %d", rt.Sink(0).Tuples, rt.Sink(1).Tuples)
	}
}

func TestReuseMissingOperatorRejected(t *testing.T) {
	w := makeTestWorld(t, 4)
	rt := New(w.g, DefaultConfig(), 1)
	leaf := query.Leaf(query.Input{
		Mask: w.q.All(), Rate: 1, Loc: 3, Derived: true, Sig: w.q.SigOf(w.q.All()),
	})
	if err := rt.Deploy(w.q, leaf, w.cat, 10); err == nil {
		t.Error("reuse of undeployed stream accepted")
	}
	if err := rt.Deploy(w.q, nil, w.cat, 10); err == nil {
		t.Error("nil plan accepted")
	}
	if len(rt.deploys) != 0 {
		t.Error("failed deploy left references")
	}
}

func TestUndeployRemovesOperators(t *testing.T) {
	w := makeTestWorld(t, 5)
	rt := New(w.g, DefaultConfig(), 9)
	if err := rt.Deploy(w.q, w.plan, w.cat, 1000); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5)
	if err := rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	if n := rt.NumOperators(); n != 0 {
		t.Errorf("%d operators survive undeploy", n)
	}
	if err := rt.Undeploy(w.q.ID); err == nil {
		t.Error("double undeploy accepted")
	}
	// Tuples in flight must not crash after teardown.
	rt.RunFor(5)
}

func TestUndeployKeepsSharedOperators(t *testing.T) {
	w := makeTestWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 9)
	if err := rt.Deploy(w.q, w.plan, w.cat, 100); err != nil {
		t.Fatal(err)
	}
	q2, _ := query.NewQuery(1, w.q.Sources, 15)
	rt2 := query.BuildRates(w.cat, q2)
	reusedLeaf := query.Leaf(query.Input{
		Mask: q2.All(), Rate: rt2.Rate(q2.All()), Loc: w.plan.Loc,
		Derived: true, Sig: q2.SigOf(q2.All()),
	})
	if err := rt.Deploy(q2, reusedLeaf, w.cat, 100); err != nil {
		t.Fatal(err)
	}
	if err := rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	// The shared operators must survive for query 1.
	if rt.Operator(w.q.SigOf(w.q.All()), w.plan.Loc) == nil {
		t.Fatal("shared root operator was torn down")
	}
	rt.RunFor(60)
	if rt.Sink(1).Tuples == 0 {
		t.Error("query 1 starved after query 0 undeployed")
	}
}

// The measured join output rate must track the analytic model:
// rate(A⋈B) ≈ rA·rB·W/D per side pairing, i.e. the empirical selectivity
// is W/KeyDomain.
func TestJoinRateMatchesAnalyticModel(t *testing.T) {
	g := netgraph.Line(3, 0.001)
	cfg := Config{KeyDomain: 100}
	rt := New(g, cfg, 13)
	cat := query.NewCatalog(0)
	a := cat.Add("A", 40, 0)
	b := cat.Add("B", 40, 2)
	// Empirical pairwise selectivity of the engine.
	selAB := 2 * Window / float64(cfg.KeyDomain)
	cat.SetSelectivity(a, b, selAB)
	q, _ := query.NewQuery(0, []query.StreamID{a, b}, 1)
	rtbl := query.BuildRates(cat, q)
	plan := query.Join(
		query.Leaf(query.Input{Mask: 1, Rate: 40, Loc: 0, Sig: q.SigOf(1)}),
		query.Leaf(query.Input{Mask: 2, Rate: 40, Loc: 2, Sig: q.SigOf(2)}),
		1, rtbl.Rate(q.All()),
	)
	if err := rt.Deploy(q, plan, cat, 400); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(400)
	measured := float64(rt.Sink(0).Tuples) / 400
	// Analytic: each arrival probes the other window: 2·rA·rB·W/D tuples/s
	// = 40·40·10/100·2 = 320/s... in tuple units the catalog rate is in
	// cost units; here compare tuple rates directly.
	want := 2 * 40 * 40 * Window / float64(cfg.KeyDomain)
	if math.Abs(measured-want)/want > 0.25 {
		t.Errorf("join rate %g, analytic %g", measured, want)
	}
}

func TestDeployTime(t *testing.T) {
	w := makeTestWorld(t, 7)
	rt := New(w.g, DefaultConfig(), 3)
	dt := rt.DeployTime(w.res.Trace, w.q.Sink)
	if dt <= 0 {
		t.Fatalf("deploy time %g", dt)
	}
	// More planning work must take longer: scale every step's Plans 10x.
	var scaled func(s *core.PlanStep) *core.PlanStep
	scaled = func(s *core.PlanStep) *core.PlanStep {
		cp := *s
		cp.Plans *= 10
		cp.Children = nil
		for _, ch := range s.Children {
			cp.Children = append(cp.Children, scaled(ch))
		}
		return &cp
	}
	if rt.DeployTime(scaled(w.res.Trace), w.q.Sink) <= dt {
		t.Error("deploy time insensitive to compute cost")
	}
	if rt.DeployTime(nil, w.q.Sink) != 0 {
		t.Error("nil trace should cost 0")
	}
}

func TestSourceValidation(t *testing.T) {
	g := netgraph.Line(2, 0)
	rt := New(g, DefaultConfig(), 1)
	if _, err := rt.StartSource("x", 0, 0, 10); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := rt.StartSource("x", 0, 5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StartSource("x", 0, 5, 10); err == nil {
		t.Error("duplicate source accepted")
	}
}
