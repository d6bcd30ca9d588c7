package core

import (
	"math"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

func aggQuery(t *testing.T, w *world, id int, sink netgraph.NodeID) *query.Query {
	t.Helper()
	q, err := query.NewQueryAgg(id, []query.StreamID{1, 3, 5}, sink,
		query.PredSet{}, query.AggSpec{Fn: "count", Window: 10, OutRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAggregateAttachedByAllOptimizers(t *testing.T) {
	w := makeWorld(t, 31, 64, 8, 10, 0)
	q := aggQuery(t, w, 0, 9)
	for name, run := range map[string]func() (Result, error){
		"topdown":  func() (Result, error) { return TopDown(w.h, w.cat, q, nil) },
		"bottomup": func() (Result, error) { return BottomUpOpts(w.h, w.cat, q, nil, Options{}) },
		"optimal":  func() (Result, error) { return OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Plan.IsUnary() {
			t.Fatalf("%s: root is not the aggregate: %s", name, res.Plan)
		}
		if res.Plan.Rate != 0.5 {
			t.Errorf("%s: aggregate rate %g", name, res.Plan.Rate)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if math.Abs(res.Cost-res.Plan.Cost(w.paths.Dist, q.Sink)) > 1e-6*res.Cost {
			t.Errorf("%s: cost mismatch", name)
		}
	}
}

// The aggregate's placement must be the argmin of its local objective.
func TestAttachAggregatePlacement(t *testing.T) {
	w := makeWorld(t, 32, 32, 4, 6, 0)
	q := aggQuery(t, w, 0, 9)
	res, err := OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Plan
	join := agg.L
	bestCost := math.Inf(1)
	for v := 0; v < w.g.NumNodes(); v++ {
		c := join.Rate*w.paths.Dist(join.Loc, netgraph.NodeID(v)) +
			q.Agg.OutRate*w.paths.Dist(netgraph.NodeID(v), q.Sink)
		if c < bestCost {
			bestCost = c
		}
	}
	got := join.Rate*w.paths.Dist(join.Loc, agg.Loc) + q.Agg.OutRate*w.paths.Dist(agg.Loc, q.Sink)
	if math.Abs(got-bestCost) > 1e-9 {
		t.Errorf("aggregate at %d costs %g, argmin %g", agg.Loc, got, bestCost)
	}
}

// An aggregation can only reduce the total cost when the summary rate is
// below the join output rate (the usual case by orders of magnitude).
func TestAggregateReducesDeliveryCost(t *testing.T) {
	w := makeWorld(t, 33, 64, 8, 10, 0)
	plain, err := query.NewQuery(0, []query.StreamID{1, 3, 5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := TopDown(w.h, w.cat, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := aggQuery(t, w, 1, 9)
	aggRes, err := TopDown(w.h, w.cat, agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aggRes.Cost > plainRes.Cost+1e-6 {
		t.Errorf("aggregation raised cost %g -> %g", plainRes.Cost, aggRes.Cost)
	}
}

func TestNewQueryAggValidation(t *testing.T) {
	if _, err := query.NewQueryAgg(0, []query.StreamID{1, 2}, 0, query.PredSet{},
		query.AggSpec{}); err == nil {
		t.Error("invalid agg accepted")
	}
	if _, err := query.NewQueryAgg(0, []query.StreamID{1, 2}, 0, query.PredSet{},
		query.AggSpec{Fn: "count", Window: -1, OutRate: 1}); err == nil {
		t.Error("negative window accepted")
	}
	q, err := query.NewQueryAgg(0, []query.StreamID{1, 2}, 0, query.PredSet{},
		query.AggSpec{Fn: "count", Window: 5, OutRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q.AggSig() == q.SigOf(q.All()) {
		t.Error("agg sig aliases join sig")
	}
}
