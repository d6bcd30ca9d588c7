package core

import (
	"testing"

	"hnp/internal/ads"
	"hnp/internal/query"
)

// Containment end-to-end: a query with weak predicates is deployed; a
// stricter query over the same streams must be able to reuse the weaker
// operator through a residual filter, and the reverse direction must not
// reuse.
func TestContainmentReuse(t *testing.T) {
	w := makeWorld(t, 21, 64, 8, 10, 0)
	weakPreds := query.MustPredSet(
		query.Pred{Stream: 2, Attr: "dep", Range: query.Range{Lo: 0, Hi: 0.8}},
	)
	strongPreds := query.MustPredSet(
		query.Pred{Stream: 2, Attr: "dep", Range: query.Range{Lo: 0.1, Hi: 0.3}},
	)
	weakQ, err := query.NewQueryPred(0, []query.StreamID{2, 5, 7}, 9, weakPreds)
	if err != nil {
		t.Fatal(err)
	}
	strongQ, err := query.NewQueryPred(1, []query.StreamID{2, 5, 7}, 30, strongPreds)
	if err != nil {
		t.Fatal(err)
	}

	reg := ads.NewRegistry()
	weakRes, err := TopDown(w.h, w.cat, weakQ, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.AdvertisePlan(weakQ, weakRes.Plan)

	// The stricter query sees the weaker operators as containment inputs.
	rt := query.BuildRates(w.cat, strongQ)
	ins := reg.InputsFor(strongQ, rt)
	if len(ins) == 0 {
		t.Fatal("no containment inputs offered")
	}
	foundFiltered := false
	for _, in := range ins {
		if in.BaseSig != "" {
			foundFiltered = true
			if in.Sig == in.BaseSig {
				t.Error("filtered input aliases its base")
			}
			if in.Rate >= rt.Rate(in.Mask)+1e-9 {
				t.Errorf("filtered rate %g not from the strict query's table", in.Rate)
			}
		}
	}
	if !foundFiltered {
		t.Error("no residual-filter input offered")
	}

	strongRes, err := TopDown(w.h, w.cat, strongQ, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse can only help relative to planning without the registry.
	fresh, err := TopDown(w.h, w.cat, strongQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strongRes.Cost > fresh.Cost+1e-6 {
		t.Errorf("containment reuse raised cost %g -> %g", fresh.Cost, strongRes.Cost)
	}

	// Reverse direction: the weaker query must NOT be offered the stricter
	// operators.
	reg2 := ads.NewRegistry()
	strongFirst, err := TopDown(w.h, w.cat, strongQ, reg2)
	if err != nil {
		t.Fatal(err)
	}
	reg2.AdvertisePlan(strongQ, strongFirst.Plan)
	wrt := query.BuildRates(w.cat, weakQ)
	for _, in := range reg2.InputsFor(weakQ, wrt) {
		t.Errorf("weak query offered stricter stream %s", in.Sig)
	}
}

// Identical predicates reuse exactly (no residual filter).
func TestExactPredicateReuseHasNoFilter(t *testing.T) {
	w := makeWorld(t, 22, 64, 8, 10, 0)
	preds := query.MustPredSet(
		query.Pred{Stream: 1, Attr: "x", Range: query.Range{Lo: 0.2, Hi: 0.6}},
	)
	q1, err := query.NewQueryPred(0, []query.StreamID{1, 4}, 3, preds)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := query.NewQueryPred(1, []query.StreamID{1, 4}, 17, preds)
	if err != nil {
		t.Fatal(err)
	}
	reg := ads.NewRegistry()
	res, err := TopDown(w.h, w.cat, q1, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.AdvertisePlan(q1, res.Plan)
	rt := query.BuildRates(w.cat, q2)
	ins := reg.InputsFor(q2, rt)
	if len(ins) == 0 {
		t.Fatal("identical-predicate reuse not offered")
	}
	for _, in := range ins {
		if in.BaseSig != "" {
			t.Errorf("exact match got a residual filter: %s from %s", in.Sig, in.BaseSig)
		}
	}
}

// Operators computed under different predicates must never alias in the
// registry or in plans.
func TestPredicateSignaturesDoNotAlias(t *testing.T) {
	w := makeWorld(t, 23, 32, 4, 6, 0)
	p1 := query.MustPredSet(query.Pred{Stream: 0, Attr: "x", Range: query.Range{Lo: 0, Hi: 0.5}})
	p2 := query.MustPredSet(query.Pred{Stream: 0, Attr: "x", Range: query.Range{Lo: 0.5, Hi: 1}})
	q1, _ := query.NewQueryPred(0, []query.StreamID{0, 1}, 2, p1)
	q2, _ := query.NewQueryPred(1, []query.StreamID{0, 1}, 2, p2)
	if q1.SigOf(q1.All()) == q2.SigOf(q2.All()) {
		t.Fatal("different predicates alias")
	}
	reg := ads.NewRegistry()
	r1, err := TopDown(w.h, w.cat, q1, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.AdvertisePlan(q1, r1.Plan)
	// q2's predicates are disjoint from q1's: no reuse possible.
	rt := query.BuildRates(w.cat, q2)
	if ins := reg.InputsFor(q2, rt); len(ins) != 0 {
		t.Errorf("disjoint predicates offered reuse: %v", ins)
	}
}
