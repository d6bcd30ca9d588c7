package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// preparedStmt exercises everything a prepared entry shares: predicates,
// a pruning projection (Proj, SrcWidths), an aggregate and a rewrite
// trace with applied rules.
const preparedStmt = `SELECT S0.A, S1.B FROM S0, S1, S2
	WHERE S0.A = S1.A AND S1.A = S2.A AND S0.B < 0.4
	WINDOW 10 AGGREGATE COUNT`

// newPreparedEngine is the test engine with schemas declared, so the
// rewrite pipeline prunes columns.
func newPreparedEngine(t *testing.T) testEngine {
	t.Helper()
	e := newTestEngine(t, 3, 0)
	for id := 0; id < e.Catalog.NumStreams(); id++ {
		e.SetSchema(query.StreamID(id), query.Schema{{Name: "a", Width: 8}, {Name: "b", Width: 8}, {Name: "blob", Width: 64}})
	}
	return e
}

// newPreparedSystem is newPreparedEngine's planning half.
func newPreparedSystem(t *testing.T) (*System, netgraph.NodeID) {
	t.Helper()
	e := newPreparedEngine(t)
	return e.System, e.sink
}

func (s *System) tableLen() int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return len(s.prepared)
}

// half is what a serving shard calls, on either half of the engine.
type half interface {
	PlanCQL(stmt string, sink netgraph.NodeID, algo Algorithm) (Deployment, error)
	Deploy(Deployment) error
	Undeploy(Deployment) (int, error)
}

// onBothHalves runs f on a planning-only System and on an Engine, each
// from newPreparedEngine; sys is the System whose table h keeps.
func onBothHalves(t *testing.T, f func(t *testing.T, h half, sys *System, sink netgraph.NodeID)) {
	for _, name := range []string{"System", "Engine"} {
		t.Run(name, func(t *testing.T) {
			e := newPreparedEngine(t)
			var h half = e.System
			if name == "Engine" {
				h = e.Engine
			}
			f(t, h, e.System, e.sink)
		})
	}
}

// undeploy retires d from h and returns what it retracted.
func undeploy(t *testing.T, h half, d Deployment) int {
	t.Helper()
	n, err := h.Undeploy(d)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The table's first rule: an entry lives exactly as long as deployments
// stand on it. What-if plans, failed plans, statements that do not
// parse and statements that fold to a no-op never enter one.
func TestPreparedPinnedByStandingDeployments(t *testing.T) {
	onBothHalves(t, testPreparedPinnedByStandingDeployments)
}

func testPreparedPinnedByStandingDeployments(t *testing.T, h half, sys *System, sink netgraph.NodeID) {
	hits, misses := sys.Obs.Counter("cql.prepared_hits"), sys.Obs.Counter("cql.prepared_misses")
	want := func(step string, entries int, hit, miss int64) {
		t.Helper()
		if got := sys.tableLen(); got != entries || hits.Value() != hit || misses.Value() != miss {
			t.Fatalf("%s: %d entries, %d hits, %d misses; want %d, %d, %d",
				step, got, hits.Value(), misses.Value(), entries, hit, miss)
		}
		if g := sys.Obs.Gauge("cql.prepared_entries").Value(); g != float64(sys.tableLen()) {
			t.Fatalf("%s: cql.prepared_entries = %g, table holds %d", step, g, sys.tableLen())
		}
	}

	if _, err := h.PlanCQL(preparedStmt, sink, AlgoTopDown); err != nil {
		t.Fatal(err)
	}
	want("what-if plan of a text nobody deployed", 0, 0, 1)
	if _, err := deploy(h)(h.PlanCQL(preparedStmt, sink, Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm planned")
	}
	want("failed plan", 0, 0, 2)
	if _, err := deploy(h)(h.PlanCQL("SELECT * FROM NOSUCH", sink, AlgoTopDown)); err == nil {
		t.Fatal("unknown stream parsed")
	}
	want("parse error", 0, 0, 3)
	noop, err := deploy(h)(h.PlanCQL("SELECT * FROM S0 WHERE S0.A < 0.2 AND S0.A > 0.7", sink, AlgoTopDown))
	if err != nil || !noop.Rewrite.NoOp || noop.Plan != nil {
		t.Fatalf("contradiction: %+v, %v", noop, err)
	}
	want("no-op statement", 0, 0, 4)
	if undeploy(t, h, noop) != 0 {
		t.Fatal("undeploying a no-op retracted advertisements")
	}

	d1, err := deploy(h)(h.PlanCQL(preparedStmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	want("first deploy", 1, 0, 5)
	d2, err := deploy(h)(h.PlanCQL(preparedStmt, sink+1, AlgoBottomUp))
	if err != nil {
		t.Fatal(err)
	}
	want("second deploy of the text", 1, 1, 5)
	if d1.Query == d2.Query || d1.Query.ID == d2.Query.ID || d2.Query.Sink != sink+1 {
		t.Fatalf("instances share identity: %+v, %+v", d1.Query, d2.Query)
	}
	if d1.Rewrite != d2.Rewrite || &d1.Query.Sources[0] != &d2.Query.Sources[0] {
		t.Error("instances of one standing text do not share their prepared parts")
	}
	if _, err := h.PlanCQL(preparedStmt, sink, AlgoOptimal); err != nil {
		t.Fatal(err)
	}
	want("what-if plan of a standing text", 1, 2, 5)
	other, err := deploy(h)(h.PlanCQL("SELECT * FROM S1, S3", sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	want("a second text", 2, 2, 6)

	undeploy(t, h, d1)
	want("one of two deployments retired", 2, 2, 6)
	undeploy(t, h, d2)
	want("text no longer standing", 1, 2, 6)
	undeploy(t, h, other)
	want("last undeploy", 0, 2, 6)

	// Two plans of one fresh text before either is deployed both miss.
	// Deploy enters the first candidate it is given; the other counts its
	// own deployment and lapses with it, in either undeploy order.
	const fresh = "SELECT * FROM S0, S3"
	sound := func(step string) {
		t.Helper()
		sys.pmu.Lock()
		defer sys.pmu.Unlock()
		for text, p := range sys.prepared {
			if p.refs < 1 || p.text != text {
				t.Fatalf("%s: entry %q (text %q) holds %d refs", step, text, p.text, p.refs)
			}
		}
	}
	for i, undeployEnteredFirst := range []bool{true, false} {
		m := int64(8 + 2*i)
		a, errA := h.PlanCQL(fresh, sink, AlgoTopDown)
		b, errB := h.PlanCQL(fresh, sink+1, AlgoTopDown)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		want("two what-if plans of a fresh text", 0, 2, m)
		for _, d := range []Deployment{a, b} {
			if err := h.Deploy(d); err != nil {
				t.Fatal(err)
			}
			want("deploy of one of two candidates", 1, 2, m)
			sound("deploy of one of two candidates")
		}
		if !undeployEnteredFirst {
			a, b = b, a
		}
		undeploy(t, h, a)
		if undeployEnteredFirst {
			want("entered candidate retired first", 0, 2, m)
		} else {
			want("lapsing candidate retired first", 1, 2, m)
		}
		sound("first undeploy")
		undeploy(t, h, b)
		want("both candidates retired", 0, 2, m)
	}
}

// The second rule: any catalog mutation drops the table, so the next
// deploy of a standing text parses and rewrites against the new catalog.
func TestPreparedDroppedOnCatalogChange(t *testing.T) {
	onBothHalves(t, testPreparedDroppedOnCatalogChange)
}

func testPreparedDroppedOnCatalogChange(t *testing.T, h half, sys *System, sink netgraph.NodeID) {
	d1, err := deploy(h)(h.PlanCQL(preparedStmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	// S0.B narrows: the pruned width of S0 and the planned bytes change.
	sys.SetSchema(0, query.Schema{{Name: "a", Width: 8}, {Name: "b", Width: 2}, {Name: "blob", Width: 64}})
	d2, err := deploy(h)(h.PlanCQL(preparedStmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Rewrite == d1.Rewrite || d2.Rewrite.BytesAfter >= d1.Rewrite.BytesAfter {
		t.Fatalf("deploy after SetSchema reused the old rewrite: %+v then %+v", d1.Rewrite, d2.Rewrite)
	}
	if d2.Query.SrcWidths[0] != 10 || d1.Query.SrcWidths[0] != 16 {
		t.Fatalf("S0 ships %g then %g bytes, want 16 then 10", d1.Query.SrcWidths[0], d2.Query.SrcWidths[0])
	}
	for _, mutate := range []func(){
		func() { sys.AddStream("S4", 5, 1) },
		func() { sys.SetSelectivity(0, 1, 0.5) },
		func() { sys.Catalog.SetRate(2, 99) },
	} {
		before := sys.Catalog.Version()
		if mutate(); sys.Catalog.Version() == before {
			t.Fatal("a catalog mutator left Version unchanged")
		}
	}
	// The drop happens at the next lookup, hit or not.
	if _, err := h.PlanCQL("SELECT * FROM S1, S3", sink, AlgoTopDown); err != nil {
		t.Fatal(err)
	}
	if sys.tableLen() != 0 {
		t.Fatalf("table holds %d entries before any deploy at the new version", sys.tableLen())
	}
	// d1's and d2's entries went with their tables: retiring them must
	// not touch the entry d3 stands on.
	undeploy(t, h, d1)
	d3, err := deploy(h)(h.PlanCQL(preparedStmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if undeploy(t, h, d2); sys.tableLen() != 1 {
		t.Fatalf("retiring a deployment of a dropped table left %d entries, want d3's", sys.tableLen())
	}
	if undeploy(t, h, d3); sys.tableLen() != 0 {
		t.Fatalf("table holds %d entries after the last undeploy", sys.tableLen())
	}

	// A statement planned before the catalog moved and deployed after
	// another lookup dropped the table is never entered, whether its plan
	// missed (a fresh candidate) or hit (the entry of a deployment retired
	// since): the next plan of the text parses against the new catalog.
	// The hit case also runs with the standing deployment retired just
	// after the deploy; only that order runs on an Engine, whose runtime
	// refuses a plan that reads operators retired since it was planned.
	misses := sys.Obs.Counter("cql.prepared_misses")
	_, onEngine := h.(*Engine)
	for i, c := range []struct{ hit, retireFirst bool }{{false, false}, {true, true}, {true, false}} {
		if c.retireFirst && onEngine {
			continue
		}
		var standing Deployment
		if c.hit {
			if standing, err = deploy(h)(h.PlanCQL(preparedStmt, sink, AlgoTopDown)); err != nil {
				t.Fatal(err)
			}
		}
		stale, err := h.PlanCQL(preparedStmt, sink, AlgoTopDown)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetSchema(0, query.Schema{{Name: "a", Width: 8}, {Name: "b", Width: 3 + float64(i)}, {Name: "blob", Width: 64}})
		if _, err := h.PlanCQL("SELECT * FROM S1, S3", sink, AlgoTopDown); err != nil {
			t.Fatal(err)
		}
		if c.hit && c.retireFirst {
			undeploy(t, h, standing)
		}
		if err := h.Deploy(stale); err != nil {
			t.Fatal(err)
		}
		if c.hit && !c.retireFirst {
			undeploy(t, h, standing)
		}
		if sys.tableLen() != 0 {
			t.Fatalf("%+v: a statement planned at an old catalog version entered the table", c)
		}
		before := misses.Value()
		next, err := h.PlanCQL(preparedStmt, sink, AlgoTopDown)
		if err != nil {
			t.Fatal(err)
		}
		if misses.Value() != before+1 || next.Rewrite == stale.Rewrite {
			t.Fatalf("%+v: the plan after the catalog moved reused the stale statement", c)
		}
		if undeploy(t, h, stale); sys.tableLen() != 0 {
			t.Fatalf("%+v: table holds %d entries after the last undeploy", c, sys.tableLen())
		}
	}
}

// The third rule: nothing downstream of PlanCQL writes what an entry
// shares. Eight goroutines plan, advertise and retire one text (the race
// detector watches the shared slices and maps), and the entry must stay
// deep-equal to an independent parse of the same text throughout.
func TestPreparedPartsAreNeverWritten(t *testing.T) {
	sys, sink := newPreparedSystem(t)
	snapshot, _, err := sys.prepare(preparedStmt) // a miss: private to this test
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.tmpl.Proj.Empty() || snapshot.tmpl.SrcWidths == nil || snapshot.tmpl.Agg == nil ||
		snapshot.tmpl.Preds.Empty() || snapshot.out.RulesApplied == 0 {
		t.Fatalf("vacuous: the statement shares too little: %+v", snapshot)
	}
	standing, err := deploy(sys)(sys.PlanCQL(preparedStmt, sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		sys.pmu.Lock()
		live := sys.prepared[preparedStmt]
		sys.pmu.Unlock()
		if live == nil || live == snapshot {
			t.Fatalf("%s: no standing entry of its own", step)
		}
		if !reflect.DeepEqual(live.tmpl, snapshot.tmpl) || !reflect.DeepEqual(live.out, snapshot.out) {
			t.Fatalf("%s: the standing entry changed:\n%+v\nwant\n%+v", step, live, snapshot)
		}
	}
	check("first deploy")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algos := []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy}
			for i := 0; i < 20; i++ {
				// Every other pair is of a text nothing keeps standing, so
				// its entry is entered and dropped under contention.
				stmt := preparedStmt
				if i%2 == 1 {
					stmt = "SELECT S1.A FROM S1, S3 WHERE S1.B > 0.5"
				}
				d, err := deploy(sys)(sys.PlanCQL(stmt, netgraph.NodeID((g*20+i)%32), algos[i%len(algos)]))
				if err != nil {
					t.Error(err)
					return
				}
				d.Explain()
				sys.Undeploy(d)
			}
		}(g)
	}
	wg.Wait()
	check("after 160 concurrent deploy/undeploy pairs")
	if sys.tableLen() != 1 {
		t.Fatalf("table holds %d entries, want the standing text's alone", sys.tableLen())
	}
	if sys.Undeploy(standing); sys.tableLen() != 0 {
		t.Fatalf("table holds %d entries after the last undeploy", sys.tableLen())
	}
}

// An entry built before the recorder was armed traces in full like one
// built after, and every rewrite_applied event of a text carries its
// entry's one audit string, not a copy.
func TestPreparedTraceAcrossArming(t *testing.T) {
	sys, sink := newPreparedSystem(t)
	if _, err := deploy(sys)(sys.PlanCQL(preparedStmt, sink, AlgoTopDown)); err != nil {
		t.Fatal(err)
	}
	sys.Obs.Tracer().Enable()
	const other = "SELECT S1.A FROM S1, S3 WHERE S1.B > 0.5"
	var want []string
	for _, stmt := range []string{preparedStmt, other, other} {
		d, err := deploy(sys)(sys.PlanCQL(stmt, sink, AlgoTopDown))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d.Rewrite.TraceString())
	}
	var got []string
	for _, e := range sys.Obs.Tracer().Snapshot() {
		if e.Kind == obs.KindRewriteApplied {
			got = append(got, e.Detail)
		}
	}
	if !reflect.DeepEqual(got, want) || want[0] == "" || want[1] == "" {
		t.Fatalf("rewrite events carry %q, want %q", got, want)
	}
	for i, stmt := range []string{preparedStmt, other, other} {
		if audit := sys.prepared[stmt].out.TraceString(); unsafe.StringData(audit) != unsafe.StringData(got[i]) {
			t.Errorf("event %d carries a copy of its entry's audit %q", i, audit)
		}
	}
}

// PlanCQL emits the audit only when a rule applied. A statement no rule
// changes emits nothing, and its entry holds the audit every such
// statement shares, not a copy of its own; one that rules change emits
// the audit byte for byte as before.
func TestPreparedTraceOnlyWhenEmitted(t *testing.T) {
	sys, sink := newPreparedSystem(t)
	sys.Obs.Tracer().Enable()
	const identity = "SELECT * FROM S1, S3"
	for _, stmt := range []string{identity, preparedStmt} {
		if _, err := deploy(sys)(sys.PlanCQL(stmt, sink, AlgoTopDown)); err != nil {
			t.Fatal(err)
		}
	}
	twin, _, err := sys.prepare("SELECT * FROM S2, S3") // a miss: built afresh
	if err != nil {
		t.Fatal(err)
	}
	const unchanged = "fold-constants: no always-true or contradictory predicates\n" +
		"push-predicates: no predicates to push\n" +
		"prune-columns: SELECT * ships full tuples; nothing to prune"
	if e := sys.prepared[identity]; e.out.RulesApplied != 0 || e.out.TraceString() != unchanged ||
		unsafe.StringData(e.out.TraceString()) != unsafe.StringData(twin.out.TraceString()) {
		t.Errorf("entry of a statement no rule changed: %d rules, a private audit %q", e.out.RulesApplied, e.out.TraceString())
	}
	const want = "fold-constants: no always-true or contradictory predicates\n" +
		"push-predicates: selections evaluated at source operators: stream 0: rate 20→8 (sel 0.4)\n" +
		"prune-columns: stream 0: 2/3 columns, width 80→16; stream 1: 2/3 columns, width 80→16; stream 2: 1/3 columns, width 80→8"
	var got []string
	for _, e := range sys.Obs.Tracer().Snapshot() {
		if e.Kind == obs.KindRewriteApplied {
			got = append(got, e.Detail)
		}
	}
	if audit := sys.prepared[preparedStmt].out.TraceString(); len(got) != 1 || got[0] != want || audit != want {
		t.Errorf("rewrite events carry %q, entry %q; want one event and the entry carrying %q", got, audit, want)
	}
}

// TestChurnedPreparedTableMatchesFresh: 10,000 deploy/undeploy pairs of
// texts that stand for one pair each rebuild the table's map along the
// way and leave a table that holds exactly what a fresh system's does
// after the same standing deployments, and still hits on them.
func TestChurnedPreparedTableMatchesFresh(t *testing.T) {
	churned, sink := newPreparedSystem(t)
	fresh, _ := newPreparedSystem(t)
	standing := []string{preparedStmt, "SELECT * FROM S1, S3", "SELECT S1.A FROM S1, S3 WHERE S1.B > 0.5"}
	for _, sys := range []*System{churned, fresh} {
		for _, stmt := range standing {
			if _, err := deploy(sys)(sys.PlanCQL(stmt, sink, AlgoTopDown)); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := reflect.ValueOf(churned.prepared).UnsafePointer()
	for i := 0; i < 10_000; i++ {
		d, err := deploy(churned)(churned.PlanCQL(fmt.Sprintf("SELECT * FROM S0, S2 WHERE S0.B < 0.%04d", i+1), sink, AlgoTopDown))
		if err != nil {
			t.Fatal(err)
		}
		churned.Undeploy(d)
	}
	if reflect.ValueOf(churned.prepared).UnsafePointer() == first {
		t.Fatal("vacuous: the table's map was never rebuilt")
	}
	if !reflect.DeepEqual(churned.prepared, fresh.prepared) {
		t.Fatalf("churned table holds %d entries, fresh %d, or they differ", churned.tableLen(), fresh.tableLen())
	}
	for _, stmt := range standing {
		if p, _, err := churned.prepare(stmt); err != nil || p != churned.prepared[stmt] {
			t.Fatalf("standing text %q missed the churned table (%v)", stmt, err)
		}
	}
}
