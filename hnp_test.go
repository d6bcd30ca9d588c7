package hnp

import (
	"fmt"
	"math/rand"
	"testing"
)

func newTestSystem(t *testing.T) (*System, []StreamID) {
	t.Helper()
	g := TransitStubNetwork(64, 3)
	sys, err := NewSystem(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.AddStream("A", 40, 4)
	b := sys.AddStream("B", 30, 20)
	c := sys.AddStream("C", 25, 50)
	sys.SetSelectivity(a, b, 0.01)
	sys.SetSelectivity(a, c, 0.02)
	sys.SetSelectivity(b, c, 0.005)
	return sys, []StreamID{a, b, c}
}

// deploy commits what a Plan* call returned: the test shorthand for
// Plan* then Deploy(d).
func deploy(sys *System) func(Deployment, error) (Deployment, error) {
	return func(d Deployment, err error) (Deployment, error) {
		if err == nil {
			err = sys.Deploy(d)
		}
		return d, err
	}
}

func TestDeployAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy} {
		sys, ids := newTestSystem(t)
		d, err := deploy(sys)(sys.Plan(ids, 9, algo))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if d.Plan == nil || d.Cost <= 0 {
			t.Fatalf("%v: bad deployment %+v", algo, d.Result)
		}
		if err := d.Plan.Validate(); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

func TestHeuristicsBoundedByOptimal(t *testing.T) {
	sys, ids := newTestSystem(t)
	opt, err := sys.Plan(ids, 9, AlgoOptimal)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoPlanThenDeploy} {
		d, err := sys.Plan(ids, 9, algo)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cost < opt.Cost-1e-6 {
			t.Errorf("%v cost %g beats optimal %g", algo, d.Cost, opt.Cost)
		}
	}
}

func TestDeployAdvertisesAndReuses(t *testing.T) {
	sys, ids := newTestSystem(t)
	first, err := deploy(sys)(sys.Plan(ids, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Registry.Len() == 0 {
		t.Fatal("no advertisements after deploy")
	}
	// Same query again: full reuse caps the marginal cost at shipping the
	// existing root output to the sink.
	second, err := deploy(sys)(sys.Plan(ids, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	cap := second.Plan.Rate * sys.Hierarchy.Paths().Dist(first.Plan.Loc, 9)
	if second.Cost > cap+1e-6 {
		t.Errorf("second deploy cost %g > reuse cap %g", second.Cost, cap)
	}
	if second.Query.ID == first.Query.ID {
		t.Error("query IDs not advancing")
	}
}

func TestPlanDoesNotAdvertise(t *testing.T) {
	sys, ids := newTestSystem(t)
	if _, err := sys.Plan(ids, 9, AlgoTopDown); err != nil {
		t.Fatal(err)
	}
	if sys.Registry.Len() != 0 {
		t.Error("Plan recorded advertisements")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	sys, ids := newTestSystem(t)
	if _, err := sys.Plan(ids, 9, Algorithm(99)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if Algorithm(99).String() != "unknown" {
		t.Error("String for unknown")
	}
	if AlgoTopDown.String() != "top-down" || AlgoBottomUp.String() != "bottom-up" ||
		AlgoOptimal.String() != "optimal" || AlgoPlanThenDeploy.String() != "plan-then-deploy" {
		t.Error("Algorithm.String labels wrong")
	}
}

// TestRefreshAfterLinkChange doubles every link of seeded random
// instances — 32 to 128 nodes, 3 to 5 sources, one stream with a schema,
// one predicate query — and re-plans with all four algorithms. Doubling is
// exact in floating point: every path cost, cluster diameter and DP
// comparison scales by 2 with no rounding, so each plan must come back
// unchanged at exactly twice the cost.
func TestRefreshAfterLinkChange(t *testing.T) {
	algos := []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(97)
		sys, err := NewSystem(TransitStubNetwork(n, seed), 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]StreamID, 3+rng.Intn(3))
		for i := range ids {
			ids[i] = sys.AddStream(fmt.Sprintf("S%d", i), 5+45*rng.Float64(), NodeID(rng.Intn(n)))
			for _, prev := range ids[:i] {
				sys.SetSelectivity(prev, ids[i], 0.001+0.05*rng.Float64())
			}
		}
		sys.SetSchema(ids[rng.Intn(len(ids))], Schema{{Name: "a", Width: 4 + float64(rng.Intn(13))}, {Name: "b", Width: 8 + float64(rng.Intn(25))}})
		preds := MustPredSet(Pred{Stream: ids[0], Attr: "a", Range: Range{Lo: 0, Hi: 0.1 + 0.8*rng.Float64()}})
		sink := NodeID(rng.Intn(n))
		var before []Deployment
		for _, algo := range algos {
			d, err := sys.PlanWhere(ids, sink, algo, preds)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, algo, err)
			}
			before = append(before, d)
		}
		for _, l := range sys.Graph.Links() {
			if err := sys.Graph.SetLinkCost(l.A, l.B, l.Cost*2); err != nil {
				t.Fatal(err)
			}
		}
		sys.Refresh()
		for i, algo := range algos {
			after, err := sys.PlanWhere(ids, sink, algo, preds)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, algo, err)
			}
			if after.Plan.String() != before[i].Plan.String() || after.Cost != 2*before[i].Cost {
				t.Errorf("seed %d (%d nodes, %d sources) %v: uniform 2x link costs: %s at %g -> %s at %g",
					seed, n, len(ids), algo, before[i].Plan, before[i].Cost, after.Plan, after.Cost)
			}
		}
	}
}

func TestNewSystemErrors(t *testing.T) {
	if _, err := NewSystem(NewGraph(4), 1, 1); err == nil {
		t.Error("maxCS=1 accepted")
	}
}

func TestDelayMetricSystem(t *testing.T) {
	g := TransitStubNetwork(64, 5)
	sys, err := NewSystemWithMetric(g, 8, 5, MetricDelay)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.AddStream("A", 40, 4)
	b := sys.AddStream("B", 30, 20)
	sys.SetSelectivity(a, b, 0.01)
	d, err := deploy(sys)(sys.Plan([]StreamID{a, b}, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost <= 0 {
		t.Fatal("non-positive delay cost")
	}
	// The plan's cost must be measured in delay units: it equals the plan
	// re-costed against delay paths, not cost paths.
	delayPaths := g.ShortestPaths(MetricDelay)
	if got := d.Plan.Cost(delayPaths.Dist, 9); got != d.Cost {
		t.Errorf("cost %g not in delay units (%g)", d.Cost, got)
	}
	// Refresh must stay on the delay metric.
	links := g.Links()
	if err := g.SetLinkCost(links[0].A, links[0].B, links[0].Cost*2); err != nil {
		t.Fatal(err)
	}
	sys.Refresh()
	if sys.Hierarchy.Paths().Metric() != MetricDelay {
		t.Error("Refresh switched metrics")
	}
}

func TestDeployAggregate(t *testing.T) {
	sys, ids := newTestSystem(t)
	// Price the un-aggregated query first (before any reuse exists).
	plain, err := sys.Plan(ids, 9, AlgoTopDown)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(sys)(sys.PlanCQL("SELECT * FROM A, B, C WINDOW 30 AGGREGATE COUNT", 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Plan.IsUnary() {
		t.Fatalf("plan root not an aggregate: %s", d.Plan)
	}
	if d.Cost > plain.Cost+1e-6 {
		t.Errorf("aggregation raised cost %g -> %g", plain.Cost, d.Cost)
	}
	// A window of zero seconds is refused.
	if _, err := deploy(sys)(sys.PlanCQL("SELECT * FROM A, B, C WINDOW 0 AGGREGATE COUNT", 9, AlgoTopDown)); err == nil {
		t.Error("WINDOW 0 accepted")
	}
}

func TestDeployCQL(t *testing.T) {
	g := TransitStubNetwork(32, 7)
	sys, err := NewSystem(g, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys.AddStream("WEATHER", 18, 5)
	sys.AddStream("FLIGHTS", 60, 12)
	sys.AddStream("CHECK-INS", 45, 13)

	// The paper's Q2.
	q2 := `SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
	       FROM FLIGHTS, CHECK-INS
	       WHERE FLIGHTS.DEPARTING = 'ATLANTA'
	         AND FLIGHTS.NUM = CHECK-INS.FLNUM
	         AND FLIGHTS.DP_TIME < 0.5`
	d2, err := deploy(sys)(sys.PlanCQL(q2, 14, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Query.K() != 2 || d2.Cost <= 0 {
		t.Fatalf("Q2 deployment: %+v", d2.Result)
	}

	// The paper's Q1 shares Q2's predicates on FLIGHTS ⋈ CHECK-INS, so its
	// deployment can reuse Q2's operator.
	q1 := `SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS
	       FROM FLIGHTS, WEATHER, CHECK-INS
	       WHERE FLIGHTS.DEPARTING = 'ATLANTA'
	         AND FLIGHTS.DESTN = WEATHER.CITY
	         AND FLIGHTS.NUM = CHECK-INS.FLNUM
	         AND FLIGHTS.DP_TIME < 0.5`
	d1, err := deploy(sys)(sys.PlanCQL(q1, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Query.K() != 3 {
		t.Fatalf("Q1 sources = %d", d1.Query.K())
	}
	// Aggregated CQL.
	agg := `SELECT * FROM FLIGHTS, WEATHER WHERE FLIGHTS.DESTN = WEATHER.CITY
	        WINDOW 60 AGGREGATE COUNT`
	da, err := deploy(sys)(sys.PlanCQL(agg, 3, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if !da.Plan.IsUnary() {
		t.Error("aggregate clause lost")
	}
	// Parse errors surface.
	if _, err := deploy(sys)(sys.PlanCQL("SELECT FROM", 0, AlgoTopDown)); err == nil {
		t.Error("bad CQL accepted")
	}
}
