package hnp

import (
	"strings"
	"testing"

	"hnp/internal/cql"
	"hnp/internal/iflow"
)

// newSchemaSystem builds the figure-workload system with full attribute
// schemas declared: three 100-byte streams whose columns split so that
// typical projections prune most of the payload (FLIGHTS.MANIFEST,
// WEATHER.RADAR, CHECKINS.PASSENGER are the wide blobs).
func newSchemaSystem(t testing.TB) (*System, NodeID) {
	t.Helper()
	g := TransitStubNetwork(64, 3)
	sys, err := NewSystem(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	fl := sys.AddStream("FLIGHTS", 40, 17)
	we := sys.AddStream("WEATHER", 25, 41)
	ck := sys.AddStream("CHECKINS", 30, 55)
	sys.SetSelectivity(fl, we, 0.01)
	sys.SetSelectivity(fl, ck, 0.02)
	sys.SetSelectivity(we, ck, 0.005)
	sys.SetSchema(fl, Schema{
		{Name: "num", Width: 8}, {Name: "status", Width: 16},
		{Name: "origin", Width: 12}, {Name: "manifest", Width: 64},
	})
	sys.SetSchema(we, Schema{
		{Name: "city", Width: 8}, {Name: "temp", Width: 8}, {Name: "radar", Width: 84},
	})
	sys.SetSchema(ck, Schema{
		{Name: "flight", Width: 8}, {Name: "status", Width: 16}, {Name: "passenger", Width: 76},
	})
	return sys, 9
}

// The statement grid: selective/projecting queries where the pipeline
// should bite, in two- and three-way forms.
var pushdownStatements = []string{
	`SELECT FLIGHTS.STATUS, WEATHER.TEMP FROM FLIGHTS, WEATHER
	 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.STATUS > 0.8`,
	`SELECT FLIGHTS.NUM, CHECKINS.STATUS FROM FLIGHTS, WEATHER, CHECKINS
	 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.NUM = CHECKINS.FLIGHT
	   AND CHECKINS.STATUS < 0.4`,
	`SELECT WEATHER.TEMP FROM FLIGHTS, WEATHER
	 WHERE FLIGHTS.NUM = WEATHER.CITY`,
	`SELECT * FROM FLIGHTS, WEATHER
	 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.STATUS > 0.9`,
}

// planUnoptimized is the reference side of every pushdown comparison: the
// statement planned by code that never runs the rewrite pipeline — parsed,
// then its raw sources and predicates handed to the planner at full
// schema widths.
func planUnoptimized(t testing.TB, sys *System, stmt string, sink NodeID, algo Algorithm) Deployment {
	t.Helper()
	st, err := cql.Parse(sys.Catalog, stmt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.PlanWhere(st.Sources, sink, algo, st.Preds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPushdownPlannedBytesMonotonic: for every statement and every
// planner, the pipeline never plans more bytes-on-wire than planning the
// same statement without it, and across the grid it saves strictly — the
// acceptance property "planned bytes are never higher with the pipeline".
func TestPushdownPlannedBytesMonotonic(t *testing.T) {
	algos := []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy}
	var sumOn, sumOff float64
	for _, algo := range algos {
		for si, stmt := range pushdownStatements {
			sys, sink := newSchemaSystem(t)

			on, err := sys.PlanCQL(stmt, sink, algo)
			if err != nil {
				t.Fatalf("%v stmt %d (on): %v", algo, si, err)
			}
			off := planUnoptimized(t, sys, stmt, sink, algo)

			if on.Rewrite == nil {
				t.Fatalf("%v stmt %d: CQL-planned query has no rewrite audit", algo, si)
			}
			if off.Rewrite != nil {
				t.Fatalf("%v stmt %d: reference side ran the rewrite", algo, si)
			}
			if on.Rewrite.BytesAfter > on.Rewrite.BytesBefore+1e-9 {
				t.Errorf("%v stmt %d: rewrite grew source bytes %g → %g",
					algo, si, on.Rewrite.BytesBefore, on.Rewrite.BytesAfter)
			}
			bOn := on.Plan.PlannedBytes(sink)
			bOff := off.Plan.PlannedBytes(sink)
			if bOn > bOff+1e-6 {
				t.Errorf("%v stmt %d: pipeline increased planned wire bytes %g → %g\non:  %s\noff: %s",
					algo, si, bOff, bOn, on.Plan, off.Plan)
			}
			sumOn += bOn
			sumOff += bOff
		}
	}
	if sumOn >= sumOff {
		t.Errorf("pipeline never reduced planned bytes across the grid: %g on vs %g off", sumOn, sumOff)
	}
	t.Logf("planned wire bytes across %d plans: %.4g (on) vs %.4g (off), %.1f%% saved",
		len(algos)*len(pushdownStatements), sumOn, sumOff, 100*(1-sumOn/sumOff))
}

// TestPushdownIdentityPlans: predicate-free full-projection statements
// must produce bit-identical plans and placements with and without the
// pipeline — the rewrite rules have nothing to do, and doing nothing must
// be byte-for-byte nothing.
func TestPushdownIdentityPlans(t *testing.T) {
	stmts := []string{
		`SELECT * FROM FLIGHTS, WEATHER WHERE FLIGHTS.NUM = WEATHER.CITY`,
		`SELECT * FROM FLIGHTS, WEATHER, CHECKINS
		 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.NUM = CHECKINS.FLIGHT`,
	}
	for _, algo := range []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy} {
		for si, stmt := range stmts {
			sys, sink := newSchemaSystem(t)
			on, err := sys.PlanCQL(stmt, sink, algo)
			if err != nil {
				t.Fatalf("%v stmt %d (on): %v", algo, si, err)
			}
			off := planUnoptimized(t, sys, stmt, sink, algo)
			if onS, offS := on.Plan.String(), off.Plan.String(); onS != offS {
				t.Errorf("%v stmt %d: identity plan diverged\non:  %s\noff: %s", algo, si, onS, offS)
			}
			if on.Cost != off.Cost {
				t.Errorf("%v stmt %d: identity cost diverged %g vs %g", algo, si, on.Cost, off.Cost)
			}
			if on.Rewrite.RulesApplied != 0 {
				t.Errorf("%v stmt %d: %d rules fired on an identity query", algo, si, on.Rewrite.RulesApplied)
			}
		}
	}
}

// TestPushdownContradiction: a provably-empty WHERE folds to a no-op —
// nil plan, nothing advertised or loaded.
func TestPushdownContradiction(t *testing.T) {
	stmt := `SELECT FLIGHTS.STATUS FROM FLIGHTS
	         WHERE FLIGHTS.STATUS < 0.2 AND FLIGHTS.STATUS > 0.7`
	sys, sink := newSchemaSystem(t)
	d, err := deploy(sys)(sys.PlanCQL(stmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatalf("contradiction should fold, not fail: %v", err)
	}
	if d.Plan != nil {
		t.Fatalf("no-op query got a plan: %s", d.Plan)
	}
	if d.Rewrite == nil || !d.Rewrite.NoOp {
		t.Fatalf("rewrite audit = %+v, want NoOp", d.Rewrite)
	}
	if d.Rewrite.BytesSaved() <= 0 {
		t.Errorf("folding an entire query saved %g bytes", d.Rewrite.BytesSaved())
	}
	if got := d.Plan.String(); !strings.Contains(got, "empty") {
		t.Errorf("nil plan renders %q", got)
	}
	if n, err := sys.Undeploy(d); n != 0 || err != nil {
		t.Errorf("no-op deployment advertised %d streams (%v)", n, err)
	}
}

// stripPlanWidths deep-copies a plan with every width zeroed: the same
// tree as the pre-width planner would have deployed it.
func stripPlanWidths(p *PlanNode) *PlanNode {
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
	cp.L = stripPlanWidths(p.L)
	cp.R = stripPlanWidths(p.R)
	return &cp
}

// TestPushdownFlowEquivalence is the end-to-end semantic-preservation
// property, asserted via the IFLOW transport ledger across pinned seeds:
//
//  1. The optimized plan and its width-stripped twin (the identical tree
//     as an unoptimized runtime would host it) deliver exactly the same
//     tuples to the sink — pruning changes bytes per tuple, never which
//     tuples flow.
//  2. The optimized plan moves strictly fewer bytes than planning the
//     same statement without the pipeline — the measurable bytes-on-wire
//     reduction, on the wire rather than on paper.
func TestPushdownFlowEquivalence(t *testing.T) {
	stmt := pushdownStatements[0]
	for _, seed := range []int64{1, 7, 42} {
		sys, sink := newSchemaSystem(t)
		on, err := sys.PlanCQL(stmt, sink, AlgoTopDown)
		if err != nil {
			t.Fatal(err)
		}
		off := planUnoptimized(t, sys, stmt, sink, AlgoTopDown)

		deploy := func(q *Query, plan *PlanNode) *iflow.Runtime {
			rt := iflow.New(sys.Graph, iflow.DefaultConfig(), 1000+seed)
			if err := rt.Deploy(q, plan, sys.Catalog, 80); err != nil {
				t.Fatalf("seed %d: deploy: %v", seed, err)
			}
			rt.RunFor(80)
			if err := rt.CheckInvariants(nil); err != nil {
				t.Fatalf("seed %d: invariants: %v", seed, err)
			}
			return rt
		}

		rtOn := deploy(on.Query, on.Plan)
		rtTwin := deploy(on.Query, stripPlanWidths(on.Plan))
		rtOff := deploy(off.Query, off.Plan)

		sOn, sTwin, sOff := rtOn.Sink(on.Query.ID), rtTwin.Sink(on.Query.ID), rtOff.Sink(off.Query.ID)
		if sOn.Tuples == 0 || sOff.Tuples == 0 {
			t.Fatalf("seed %d: vacuous run: on=%d off=%d tuples", seed, sOn.Tuples, sOff.Tuples)
		}
		if sOn.Tuples != sTwin.Tuples {
			t.Errorf("seed %d: pruning changed delivered tuples: %d vs %d (twin)", seed, sOn.Tuples, sTwin.Tuples)
		}
		if rtOn.TuplesTransferred != rtTwin.TuplesTransferred {
			t.Errorf("seed %d: pruning changed transfer counts: %d vs %d (twin)",
				seed, rtOn.TuplesTransferred, rtTwin.TuplesTransferred)
		}
		if rtOn.TotalBytes >= rtOff.TotalBytes {
			t.Errorf("seed %d: pipeline on moved %g bytes, off moved %g — no wire reduction",
				seed, rtOn.TotalBytes, rtOff.TotalBytes)
		}
	}
}

// TestRewriteTelemetry: the pipeline's obs counters and the bytes-saved
// gauge accumulate per planned query.
func TestRewriteTelemetry(t *testing.T) {
	sys, sink := newSchemaSystem(t)
	if _, err := sys.PlanCQL(pushdownStatements[0], sink, AlgoTopDown); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if got := snap.Counter("rewrite.rules_applied"); got <= 0 {
		t.Errorf("rewrite.rules_applied = %d", got)
	}
	if got := snap.Gauge("rewrite.bytes_saved"); got <= 0 {
		t.Errorf("rewrite.bytes_saved = %g", got)
	}
}
