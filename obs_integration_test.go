package hnp

import "testing"

// countDerived tallies derived-leaf ground truth for a deployment's plan,
// independently of the telemetry path under test.
func countDerived(n *PlanNode) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		if n.In != nil && n.In.Derived {
			return 1
		}
		return 0
	}
	return countDerived(n.L) + countDerived(n.R)
}

// TestSnapshotReuseCountersMatchRegistry runs three overlapping Deploy
// calls and checks the snapshot's reuse accounting against ground truth
// recomputed from the deployed plans and the advertisement registry.
func TestSnapshotReuseCountersMatchRegistry(t *testing.T) {
	g := TransitStubNetwork(64, 3)
	sys, err := NewSystem(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.AddStream("A", 40, 4)
	b := sys.AddStream("B", 30, 20)
	c := sys.AddStream("C", 25, 50)
	d := sys.AddStream("D", 20, 33)
	for _, p := range [][2]StreamID{{a, b}, {a, c}, {a, d}, {b, c}, {b, d}, {c, d}} {
		sys.SetSelectivity(p[0], p[1], 0.01)
	}

	// Three overlapping queries: the second and third share the {A,B}
	// (and for the third, possibly {A,B,C}) subexpressions with earlier
	// deployments, so reuse is on the table each time after the first.
	var wantHits int
	for _, spec := range []struct {
		sources []StreamID
		sink    NodeID
	}{
		{[]StreamID{a, b, c}, 9},
		{[]StreamID{a, b, c}, 41},
		{[]StreamID{a, b, c, d}, 17},
	} {
		dep, err := deploy(sys)(sys.Plan(spec.sources, spec.sink, AlgoTopDown))
		if err != nil {
			t.Fatal(err)
		}
		wantHits += countDerived(dep.Plan)
	}

	snap := sys.Snapshot()
	if got := snap.Counter("ads.reuse_hits"); got != int64(wantHits) {
		t.Errorf("ads.reuse_hits = %d, ground truth %d", got, wantHits)
	}
	// The first deployment faces an empty registry, so hits and misses
	// together can cover at most the two later deployments.
	misses := snap.Counter("ads.reuse_misses")
	if misses < 0 || misses > 2 {
		t.Errorf("ads.reuse_misses = %d, want within [0,2]", misses)
	}
	// Advertised-count ground truth: the registry is the source of record.
	if got := snap.Counter("ads.advertised"); got != int64(sys.Registry.Len()) {
		t.Errorf("ads.advertised = %d, registry holds %d", got, sys.Registry.Len())
	}
	if wantHits == 0 {
		t.Log("note: no reuse occurred in this scenario; hits ground truth is 0")
	}
	// Identical repeat query: its whole result is already materialized, so
	// reuse must hit and the counter must move by exactly the plan's
	// derived leaves.
	before := snap.Counter("ads.reuse_hits")
	rep, err := deploy(sys)(sys.Plan([]StreamID{a, b, c}, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	gotDelta := sys.Snapshot().Counter("ads.reuse_hits") - before
	if want := int64(countDerived(rep.Plan)); gotDelta != want {
		t.Errorf("repeat deploy moved reuse_hits by %d, plan has %d derived leaves", gotDelta, want)
	}
	if countDerived(rep.Plan) == 0 {
		t.Error("repeat of an identical deployed query did not reuse anything")
	}
	// The registry is consulted once per planned query, and every ad it
	// offers was examined in a probed bucket first.
	snap = sys.Snapshot()
	if got := snap.Counter("ads.lookups"); got != 4 {
		t.Errorf("ads.lookups = %d after 4 planned queries", got)
	}
	if offered, scanned := snap.Counter("ads.reuse_offered"), snap.Counter("ads.scanned"); offered == 0 || scanned < offered {
		t.Errorf("ads.reuse_offered = %d, ads.scanned = %d: want 0 < offered <= scanned", offered, scanned)
	}

	// The optimal search makes the same one lookup and plan-then-deploy,
	// which probes exact signatures through Registry.Lookup, makes none —
	// whether or not the deploy reuses anything. Reuse is judged from what
	// planning saw, so a deploy with nothing on offer is no miss.
	e := sys.AddStream("E", 15, 60)
	f := sys.AddStream("F", 10, 12)
	sys.SetSelectivity(e, f, 0.01)
	sys.SetSelectivity(a, e, 0.01)
	lookups, misses := snap.Counter("ads.lookups"), snap.Counter("ads.reuse_misses")
	for _, spec := range []struct {
		sources []StreamID
		algo    Algorithm
		lookups int64
	}{
		{[]StreamID{e, f}, AlgoOptimal, 1},        // nothing advertised over E and F yet
		{[]StreamID{a, e}, AlgoPlanThenDeploy, 0}, // nor over A and E
		{[]StreamID{a, b, c}, AlgoOptimal, 1},
		{[]StreamID{a, b, c}, AlgoPlanThenDeploy, 0},
	} {
		dep, err := deploy(sys)(sys.Plan(spec.sources, 33, spec.algo))
		if err != nil {
			t.Fatal(err)
		}
		wantHits += countDerived(dep.Plan)
		lookups += spec.lookups
		snap = sys.Snapshot()
		if got := snap.Counter("ads.lookups"); got != lookups {
			t.Errorf("%v deploy of %v: ads.lookups = %d, want %d", spec.algo, spec.sources, got, lookups)
		}
		if countDerived(dep.Plan) == 0 && len(spec.sources) == 2 && snap.Counter("ads.reuse_misses") != misses {
			t.Errorf("%v deploy of %v with nothing on offer counted as a reuse miss", spec.algo, spec.sources)
		}
		misses = snap.Counter("ads.reuse_misses")
	}
	if got := snap.Counter("ads.reuse_hits"); got != int64(wantHits+countDerived(rep.Plan)) {
		t.Errorf("ads.reuse_hits = %d after every algorithm, ground truth %d", got, wantHits+countDerived(rep.Plan))
	}
}

// TestPlanLeavesCountersUntouched: what-if planning must not move
// deployment counters — Plan has no side effects on reuse accounting.
func TestPlanLeavesCountersUntouched(t *testing.T) {
	sys, ids := newTestSystem(t)
	if _, err := sys.Plan(ids, 9, AlgoTopDown); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if snap.Counter("ads.advertised") != 0 {
		t.Error("Plan advertised operators")
	}
	if snap.Counter("ads.reuse_hits") != 0 || snap.Counter("ads.reuse_misses") != 0 {
		t.Error("Plan recorded reuse outcomes")
	}
	// Planner telemetry still flows: the search itself is instrumented.
	if snap.Counter("core.topdown.plan.calls") != 1 {
		t.Error("planner span not recorded")
	}
}
