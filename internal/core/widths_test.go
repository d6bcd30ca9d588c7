package core

import (
	"math"
	"testing"
	"testing/quick"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// widthProblem extends problemFixture with a per-stream width model: every
// stream gets a schema whose total width is seed-dependent, the query gets
// pruned source widths on even positions, and the Problem carries the
// resulting width table.
func widthProblem(seed int64, reuse bool) (Problem, *query.Query) {
	p, q, cat := problemFixture(seed, reuse)
	for i, sid := range q.Sources {
		w := 8 + float64((int(seed)*31+i*17)%120)
		cat.SetSchema(sid, query.Schema{{Name: "a", Width: w / 2}, {Name: "b", Width: w - w/2}})
		if i%2 == 0 {
			q.SrcWidths = append(q.SrcWidths, w/2) // pruned to one column
		} else {
			q.SrcWidths = append(q.SrcWidths, 0) // full schema width
		}
	}
	p.Widths = query.BuildWidths(cat, q)
	return p, q
}

// The DP must still return exactly the brute-force optimum when every
// edge is priced at rate×width instead of rate alone.
func TestSolveWithWidthsMatchesNaive(t *testing.T) {
	check := func(seed int64, reuse, deliver bool) bool {
		p, _ := widthProblem(seed, reuse)
		p.Deliver = deliver
		dpPlan, dpCost, err := Solve(p)
		if err != nil {
			return false
		}
		_, naiveCost, _, err := NaiveSolve(p)
		if err != nil {
			return false
		}
		if math.Abs(dpCost-naiveCost) > 1e-6*(1+naiveCost) {
			t.Logf("seed=%d reuse=%v deliver=%v: dp=%g naive=%g plan=%s",
				seed, reuse, deliver, dpCost, naiveCost, dpPlan)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The cost the width-aware DP reports must equal recomputing the
// reconstructed (width-stamped) plan's cost from scratch.
func TestSolveWithWidthsCostMatchesPlan(t *testing.T) {
	check := func(seed int64, reuse bool) bool {
		p, _ := widthProblem(seed, reuse)
		plan, cost, err := Solve(p)
		if err != nil {
			return false
		}
		if err := plan.Validate(); err != nil {
			return false
		}
		actual := plan.Cost(p.Dist, p.Sink)
		return math.Abs(actual-cost) <= 1e-6*(1+cost)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWidthsSteerPlacement pins the qualitative behavior the width model
// exists for: on a line, the join gravitates toward the heavier (in
// bytes, not tuples) source, so flipping which stream is wide flips the
// placement — with equal tuple rates, a rate-only model can't tell the
// two configurations apart.
func TestWidthsSteerPlacement(t *testing.T) {
	g := netgraph.Line(20, 0)
	paths := g.ShortestPaths(netgraph.MetricCost)
	rt := query.RateTable{0, 10, 10, 1}
	var sites []netgraph.NodeID
	for i := 0; i < 20; i++ {
		sites = append(sites, netgraph.NodeID(i))
	}
	base := Problem{
		Inputs: []query.Input{
			{Mask: 0b01, Rate: 10, Loc: 0, Sig: "0"},
			{Mask: 0b10, Rate: 10, Loc: 19, Sig: "1"},
		},
		Sites: sites, Dist: paths.Dist, Rates: rt,
		Goal: 0b11, Sink: 10, Deliver: true,
	}

	solveAt := func(widths query.WidthTable) netgraph.NodeID {
		p := base
		p.Inputs = append([]query.Input(nil), base.Inputs...)
		p.Widths = widths
		plan, _, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Loc
	}

	wideLeft := solveAt(query.WidthTable{0, 500, 1, 501})
	wideRight := solveAt(query.WidthTable{0, 1, 500, 501})
	if wideLeft >= wideRight {
		t.Errorf("join placed at %d with the wide stream left, %d with it right — widths never steered placement",
			wideLeft, wideRight)
	}
	if wideLeft > 2 {
		t.Errorf("wide-left join at node %d, want near node 0", wideLeft)
	}
	if wideRight < 17 {
		t.Errorf("wide-right join at node %d, want near node 19", wideRight)
	}
}

// TestNilWidthsUnchanged: a Problem without a width table must solve to
// the same plan and cost as before the width model existed (widths
// degrade to 1 everywhere). The fixture-based quick checks above run the
// same seeds as the legacy tests; this pins one concrete case.
func TestNilWidthsUnchanged(t *testing.T) {
	p, _, _ := problemFixture(11, true)
	planA, costA, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Widths != nil {
		t.Fatal("fixture unexpectedly carries widths")
	}
	// An explicit all-unit-width table beyond the root mask is NOT the
	// same as nil (join widths add), so nil must stay the degenerate case.
	if planA == nil || costA <= 0 {
		t.Fatalf("plan=%v cost=%g", planA, costA)
	}
	for _, n := range append(planA.Operators(), planA.Leaves()...) {
		if n.Width != 0 {
			t.Errorf("width-free solve stamped width %g on %s", n.Width, n)
		}
	}
}
