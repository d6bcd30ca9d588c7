package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// problemFixture builds a random Problem over a random connected graph.
// Inputs are base streams at random nodes plus, with reuse, a couple of
// derived streams covering random pairs.
func problemFixture(seed int64, reuse bool) (Problem, *query.Query, *query.Catalog) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(6)
	g := netgraph.Random(n, 2.5, netgraph.CostRange{Lo: 1, Hi: 10}, netgraph.CostRange{}, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)

	cat := query.NewCatalog(0.01)
	k := 2 + rng.Intn(3) // 2-4 sources
	ids := make([]query.StreamID, k)
	for i := range ids {
		ids[i] = cat.Add("s", 1+rng.Float64()*50, netgraph.NodeID(rng.Intn(n)))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			cat.SetSelectivity(ids[i], ids[j], 0.01+rng.Float64()*0.2)
		}
	}
	q, err := query.NewQuery(0, ids, netgraph.NodeID(rng.Intn(n)))
	if err != nil {
		panic(err)
	}
	rt := query.BuildRates(cat, q)

	var inputs []query.Input
	for i, id := range ids {
		m := query.Mask(1 << uint(i))
		inputs = append(inputs, query.Input{
			Mask: m, Rate: rt.Rate(m), Loc: cat.Stream(id).Source, Sig: q.SigOf(m),
		})
	}
	if reuse && k >= 3 {
		m := query.Mask(0b011)
		inputs = append(inputs, query.Input{
			Mask: m, Rate: rt.Rate(m), Loc: netgraph.NodeID(rng.Intn(n)),
			Derived: true, Sig: q.SigOf(m),
		})
	}

	// A handful of candidate sites (kept small so NaiveSolve stays cheap).
	nSites := 2 + rng.Intn(3)
	sites := make([]netgraph.NodeID, nSites)
	for i := range sites {
		sites[i] = netgraph.NodeID(rng.Intn(n))
	}
	return Problem{
		Inputs:  inputs,
		Sites:   sites,
		Dist:    paths.Dist,
		Rates:   rt,
		Goal:    q.All(),
		Sink:    q.Sink,
		Deliver: true,
	}, q, cat
}

// The DP must return exactly the optimum found by brute-force enumeration,
// with or without derived inputs, with or without final delivery.
func TestSolveMatchesNaive(t *testing.T) {
	check := func(seed int64, reuse, deliver bool) bool {
		p, _, _ := problemFixture(seed, reuse)
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

// The cost the DP reports must equal the cost of the plan it reconstructs.
func TestSolveCostMatchesPlan(t *testing.T) {
	check := func(seed int64, reuse bool) bool {
		p, _, _ := problemFixture(seed, reuse)
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

func TestSolvePlanCoversGoal(t *testing.T) {
	check := func(seed int64) bool {
		p, _, _ := problemFixture(seed, true)
		plan, _, err := Solve(p)
		if err != nil {
			return false
		}
		return plan.Mask == p.Goal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveErrors(t *testing.T) {
	p, _, _ := problemFixture(1, false)
	bad := p
	bad.Goal = 0
	if _, _, err := Solve(bad); err == nil {
		t.Error("empty goal accepted")
	}
	bad = p
	bad.Inputs = p.Inputs[:1]
	if _, _, err := Solve(bad); err == nil {
		t.Error("uncoverable goal accepted")
	}
	bad = p
	bad.Sites = nil
	if _, _, err := Solve(bad); err == nil {
		t.Error("no sites accepted")
	}
	if _, _, _, err := NaiveSolve(bad); err == nil {
		t.Error("naive: no sites accepted")
	}
	bad = p
	bad.Goal = 0
	if _, _, _, err := NaiveSolve(bad); err == nil {
		t.Error("naive: empty goal accepted")
	}
}

func TestSolveSingleInputGoal(t *testing.T) {
	// A derived stream covering the whole goal: plan is just the leaf.
	dist := func(a, b netgraph.NodeID) float64 { return math.Abs(float64(a - b)) }
	rt := query.RateTable{0, 1, 1, 5}
	p := Problem{
		Inputs:  []query.Input{{Mask: 0b11, Rate: 5, Loc: 2, Derived: true, Sig: "0|1"}},
		Sites:   []netgraph.NodeID{0, 1, 2, 3},
		Dist:    dist,
		Rates:   rt,
		Goal:    0b11,
		Sink:    4,
		Deliver: true,
	}
	plan, cost, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsLeaf() || plan.Loc != 2 {
		t.Errorf("plan = %s", plan)
	}
	if cost != 10 { // 5 * |2-4|
		t.Errorf("cost = %g, want 10", cost)
	}
}

func TestSolvePrefersCheapReuse(t *testing.T) {
	// Base streams far from the sink; a derived stream for their join sits
	// next to the sink. Reuse must win.
	g := netgraph.Line(10, 0)
	paths := g.ShortestPaths(netgraph.MetricCost)
	rt := query.RateTable{0, 100, 100, 50}
	inputs := []query.Input{
		{Mask: 0b01, Rate: 100, Loc: 0, Sig: "0"},
		{Mask: 0b10, Rate: 100, Loc: 1, Sig: "1"},
		{Mask: 0b11, Rate: 50, Loc: 8, Derived: true, Sig: "0|1"},
	}
	sites := []netgraph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	plan, cost, err := Solve(Problem{
		Inputs: inputs, Sites: sites, Dist: paths.Dist, Rates: rt,
		Goal: 0b11, Sink: 9, Deliver: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsLeaf() || !plan.In.Derived {
		t.Errorf("expected reuse, got %s (cost %g)", plan, cost)
	}
	if cost != 50 { // 50 * dist(8,9)
		t.Errorf("cost = %g, want 50", cost)
	}
}

func TestSolveDuplicatesBadReuse(t *testing.T) {
	// Derived stream at the far end of the line: duplicating the operator
	// near the sources must beat reuse ("if it is cheaper to duplicate
	// operators rather than reuse existing ones, the coordinator will do
	// so").
	g := netgraph.Line(20, 0)
	paths := g.ShortestPaths(netgraph.MetricCost)
	rt := query.RateTable{0, 10, 10, 1}
	inputs := []query.Input{
		{Mask: 0b01, Rate: 10, Loc: 0, Sig: "0"},
		{Mask: 0b10, Rate: 10, Loc: 1, Sig: "1"},
		{Mask: 0b11, Rate: 1, Loc: 19, Derived: true, Sig: "0|1"},
	}
	var sites []netgraph.NodeID
	for i := 0; i < 20; i++ {
		sites = append(sites, netgraph.NodeID(i))
	}
	plan, _, err := Solve(Problem{
		Inputs: inputs, Sites: sites, Dist: paths.Dist, Rates: rt,
		Goal: 0b11, Sink: 2, Deliver: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsLeaf() {
		t.Errorf("expected a fresh join, got reuse: %s", plan)
	}
}

func TestNaiveExaminedCountsMatchFormula(t *testing.T) {
	// Without reuse the naive enumerator examines exactly
	// NumTrees(k) × sites^(k-1) plans.
	p, q, _ := problemFixture(3, false)
	_, _, examined, err := NaiveSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	k := q.K()
	sites, err := dedupeSites(p.Sites)
	if err != nil {
		t.Fatal(err)
	}
	m := len(sites)
	want := query.NumTrees(k)
	for i := 1; i < k; i++ {
		want *= int64(m)
	}
	if examined != want {
		t.Errorf("examined = %d, want %d (k=%d m=%d)", examined, want, k, m)
	}
}

// TestSubmaskOrder pins what the DP needs from its enumeration and nothing
// more: every non-empty sub-mask of the goal appears exactly once, and
// every proper sub-mask of s appears before s.
func TestSubmaskOrder(t *testing.T) {
	for _, goal := range []query.Mask{0b1, 0b1011, 0b111111, 0b10100110, 0b1000000000000001} {
		seen := map[query.Mask]bool{}
		for s := nextSubmask(0, goal); s != 0; s = nextSubmask(s, goal) {
			if s&goal != s || seen[s] {
				t.Fatalf("goal %b: %b is foreign or repeated", goal, s)
			}
			for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
				if !seen[sub] {
					t.Fatalf("goal %b: %b enumerated before its sub-mask %b", goal, s, sub)
				}
			}
			seen[s] = true
		}
		if want := 1<<uint(goal.Count()) - 1; len(seen) != want {
			t.Errorf("goal %b: %d sub-masks enumerated, want %d", goal, len(seen), want)
		}
	}
}
