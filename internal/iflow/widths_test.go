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

// widthWorld builds a 3-way predicate query over a schema-bearing catalog
// with pruned source widths, planned by Top-Down so the plan arrives
// width-stamped.
func widthWorld(t *testing.T, seed int64) (*netgraph.Graph, *query.Catalog, *query.Query, *query.PlanNode) {
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
	cat.SetSchema(a, query.Schema{{Name: "k", Width: 8}, {Name: "v", Width: 24}, {Name: "blob", Width: 68}})
	cat.SetSchema(b, query.Schema{{Name: "k", Width: 8}, {Name: "v", Width: 40}})
	cat.SetSchema(c, query.Schema{{Name: "k", Width: 8}, {Name: "v", Width: 16}})
	q, err := query.NewQueryPred(0, []query.StreamID{a, b, c}, 9,
		query.MustPredSet(query.Pred{Stream: a, Attr: "k", Range: query.Range{Lo: 0, Hi: 0.5}}))
	if err != nil {
		t.Fatal(err)
	}
	// Pruned as the rewrite pipeline would leave it: A ships k+v only.
	q.SrcWidths = []float64{32, 0, 0}
	spec := query.NewProjSpec()
	spec.Set(a, []string{"k", "v"})
	q.Proj = spec
	res, err := core.TopDown(h, cat, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, cat, q, res.Plan
}

// stripWidths deep-copies a plan with every width zeroed — the identical
// tree as the pre-width runtime would have deployed it.
func stripWidths(p *query.PlanNode) *query.PlanNode {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Width = 0
	if p.In != nil {
		in := *p.In
		in.Width = 0
		cp.In = &in
	}
	cp.L = stripWidths(p.L)
	cp.R = stripWidths(p.R)
	return &cp
}

// TestWidthTwinRuns is the semantic-preservation property at the physical
// layer: the same tree deployed width-stamped and width-free, on the same
// seed, delivers exactly the same tuples — pruning changes how many bytes
// each tuple carries, never which tuples exist — while moving strictly
// fewer bytes (every pruned width is below the 100-byte default). Both
// runtimes must pass the full invariant audit, including the per-operator
// width homogeneity and transport-conservation checks.
func TestWidthTwinRuns(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g, cat, q, plan := widthWorld(t, seed)

		rtW := New(g, DefaultConfig(), 1000+seed)
		if err := rtW.Deploy(q, plan, cat, 80); err != nil {
			t.Fatalf("seed %d: stamped deploy: %v", seed, err)
		}
		rtP := New(g, DefaultConfig(), 1000+seed)
		if err := rtP.Deploy(q, stripWidths(plan), cat, 80); err != nil {
			t.Fatalf("seed %d: stripped deploy: %v", seed, err)
		}
		rtW.RunFor(80)
		rtP.RunFor(80)

		sw, sp := rtW.Sink(q.ID), rtP.Sink(q.ID)
		if sw.Tuples == 0 {
			t.Fatalf("seed %d: no deliveries", seed)
		}
		if sw.Tuples != sp.Tuples {
			t.Errorf("seed %d: widths changed delivered tuples: %d vs %d", seed, sw.Tuples, sp.Tuples)
		}
		if rtW.TuplesTransferred != rtP.TuplesTransferred {
			t.Errorf("seed %d: widths changed transfer counts: %d vs %d",
				seed, rtW.TuplesTransferred, rtP.TuplesTransferred)
		}
		if rtW.TotalBytes >= rtP.TotalBytes {
			t.Errorf("seed %d: stamped run moved %g bytes, stripped %g — pruning never bit",
				seed, rtW.TotalBytes, rtP.TotalBytes)
		}
		if err := rtW.CheckInvariants(nil); err != nil {
			t.Errorf("seed %d: stamped invariants: %v", seed, err)
		}
		if err := rtP.CheckInvariants(nil); err != nil {
			t.Errorf("seed %d: stripped invariants: %v", seed, err)
		}
	}
}

// TestWidthEmission pins the per-operator byte accounting: every operator
// emits at its own stamped width (or query.DefaultTupleWidth
// when unstamped), and sink bytes equal the root width times delivered tuples.
func TestWidthEmission(t *testing.T) {
	g, cat, q, plan := widthWorld(t, 5)
	rt := New(g, DefaultConfig(), 99)
	if err := rt.Deploy(q, plan, cat, 60); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(60)
	sink := rt.Sink(q.ID)
	if sink.Tuples == 0 {
		t.Fatal("no deliveries")
	}
	rootW := plan.Width
	if rootW <= 0 {
		t.Fatalf("plan arrived unstamped: %s", plan)
	}
	if want := rootW * float64(sink.Tuples); math.Abs(sink.Bytes-want) > 1e-6*want {
		t.Errorf("sink bytes %g, want %g (%d tuples × width %g)", sink.Bytes, want, sink.Tuples, rootW)
	}
	// The invariant audit re-derives the same homogeneity for every
	// operator in the fleet.
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestMixedWidthFleet exercises the width bracket in the conservation
// invariant: one runtime hosts a width-stamped pruned query alongside a
// width-free one (whose operators emit at query.DefaultTupleWidth), so
// TotalBytes mixes tuple sizes and the audit must fall back from the
// exact uniform formula to its [min,max] bracket — and still pass.
func TestMixedWidthFleet(t *testing.T) {
	g, cat, q, plan := widthWorld(t, 9)
	rt := New(g, DefaultConfig(), 3)
	if err := rt.Deploy(q, plan, cat, 60); err != nil {
		t.Fatal(err)
	}
	// Second query over the same streams, no pruning, no widths: its
	// signatures carry no projection fragment, so it builds its own
	// operators instead of aliasing the pruned ones.
	q2, err := query.NewQueryPred(1, q.Sources, 15, q.Preds)
	if err != nil {
		t.Fatal(err)
	}
	plan2 := stripWidths(plan)
	relabel(plan2, q2)
	if err := rt.Deploy(q2, plan2, cat, 60); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(60)
	if rt.Sink(q.ID).Tuples == 0 || rt.Sink(q2.ID).Tuples == 0 {
		t.Fatalf("deliveries: q0=%d q1=%d", rt.Sink(q.ID).Tuples, rt.Sink(q2.ID).Tuples)
	}
	if rt.minTupleSize == rt.maxTupleSize {
		t.Fatalf("fleet never mixed widths (all transfers at %g) — the bracket path was not exercised", rt.maxTupleSize)
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// relabel rewrites a copied plan's signatures to q2's (projection-free)
// vocabulary so the two deployments cannot share operators.
func relabel(p *query.PlanNode, q2 *query.Query) {
	if p == nil {
		return
	}
	if p.In != nil {
		p.In.Sig = q2.SigOf(p.Mask)
	}
	relabel(p.L, q2)
	relabel(p.R, q2)
}
