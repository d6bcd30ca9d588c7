package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hnp/internal/adapt"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Every algorithm's name must parse back to it: one table serves String,
// the wire format, the CLIs and the chaos traces.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{AlgoTopDown, AlgoBottomUp, AlgoOptimal, AlgoPlanThenDeploy} {
		got, ok := ParseAlgorithm(a.String())
		if !ok || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, ok, a)
		}
	}
	for _, bad := range []string{"", "unknown", "topdown", "Top-Down"} {
		if a, ok := ParseAlgorithm(bad); ok {
			t.Errorf("ParseAlgorithm(%q) accepted as %v", bad, a)
		}
	}
	if s := Algorithm(99).String(); s != "unknown" {
		t.Errorf("out-of-range algorithm renders %q", s)
	}
}

// testEngine is a 32-node transit-stub network with four streams (S0..S3
// at seed-drawn nodes) under a runtime-backed engine.
type testEngine struct {
	*Engine
	sink netgraph.NodeID
}

func newTestEngine(t *testing.T, seed int64, until float64) testEngine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(32, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog(0.01)
	for i, name := range []string{"S0", "S1", "S2", "S3"} {
		cat.Add(name, 20+10*float64(i), netgraph.NodeID(rng.Intn(32)))
	}
	sys := NewSystem(g, h, cat, obs.NewRegistry())
	return testEngine{NewEngine(sys, iflow.DefaultConfig(), seed, until), netgraph.NodeID(rng.Intn(32))}
}

// start plans and deploys one query, then audits.
func (e testEngine) start(t *testing.T, algo Algorithm, sink netgraph.NodeID, sources ...query.StreamID) Deployment {
	t.Helper()
	d, err := e.Plan(sources, sink, algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(d); err != nil {
		t.Fatal(err)
	}
	e.audit(t, "deploy "+d.Plan.String())
	return d
}

func (e testEngine) audit(t *testing.T, step string) {
	t.Helper()
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after %s: %v", step, err)
	}
}

// deploy commits what a Plan* call returned, on either half of the engine:
// the test shorthand for Plan* then Deploy(d).
func deploy(c interface{ Deploy(Deployment) error }) func(Deployment, error) (Deployment, error) {
	return func(d Deployment, err error) (Deployment, error) {
		if err == nil {
			err = c.Deploy(d)
		}
		return d, err
	}
}

// SetLiveRate — the call a rate-shift endpoint will sit on — must refuse
// anything but a finite positive rate: +Inf would spin the source's tick
// at one instant forever, NaN would queue an event with no place in time.
func TestSetLiveRateRejectsNonFiniteRates(t *testing.T) {
	e := newTestEngine(t, 3, 200)
	d := e.start(t, AlgoTopDown, e.sink, 0, 1)
	var tap *iflow.Operator
	for _, l := range d.Plan.Leaves() {
		if ids := d.Query.StreamsOf(l.Mask); !l.In.Derived && len(ids) == 1 && ids[0] == 0 {
			tap = e.RT.Operator(l.In.Sig, l.Loc)
		}
	}
	if tap == nil {
		t.Fatalf("plan %s has no tap for stream 0", d.Plan)
	}
	rate, pending := tap.ExpRate(), e.RT.Sim.Pending()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		if _, err := e.SetLiveRate(0, bad); err == nil {
			t.Errorf("SetLiveRate accepted %g", bad)
		}
		if tap.ExpRate() != rate || e.RT.Sim.Pending() != pending {
			t.Errorf("after rate %g: tap at %g, %d events pending; want %g and %d",
				bad, tap.ExpRate(), e.RT.Sim.Pending(), rate, pending)
		}
	}
	e.RT.RunFor(20)
	e.audit(t, "refused rates")
}

// TestEngineLifecycle drives a runtime-backed engine by hand through every
// lifecycle method, auditing after each step: the registry, the load
// ledger, the path snapshots and the hierarchy must match what the
// runtime hosts at every point, and tearing everything down must leave
// nothing behind.
func TestEngineLifecycle(t *testing.T) {
	e := newTestEngine(t, 3, 200)
	q1 := e.start(t, AlgoTopDown, e.sink, 0, 1)
	q2 := e.start(t, AlgoTopDown, e.sink, 0, 1, 2)
	if q2.Plan.DerivedLeaves() == 0 {
		t.Fatalf("second query %s does not reuse the first's operator; pick another seed", q2.Plan)
	}
	q3 := e.start(t, AlgoBottomUp, 5, 2, 3)
	// A provably empty statement plans to no plan, which runs and records
	// nothing.
	empty, err := deploy(e)(e.PlanCQL("SELECT * FROM S0 WHERE S0.A < 0.2 AND S0.A > 0.7", e.sink, AlgoTopDown))
	if err != nil || empty.Plan != nil || len(e.RT.DeployedQueries()) != 3 {
		t.Fatalf("empty statement: plan %v, %v; %d queries deployed, want 3", empty.Plan, err, len(e.RT.DeployedQueries()))
	}
	e.audit(t, "deploy of an empty statement")
	e.RT.RunFor(10)

	// Link burst: reprice everything around q2's operators.
	var burst []iflow.LinkCostUpdate
	for _, op := range q2.Plan.Operators() {
		for _, nb := range e.Graph.Neighbors(op.Loc) {
			cost, _ := e.Graph.LinkCost(op.Loc, nb)
			burst = append(burst, iflow.LinkCostUpdate{A: op.Loc, B: nb, Cost: cost * 20})
		}
	}
	before := e.Hierarchy.Paths()
	if err := e.UpdateLinkCosts(burst...); err != nil {
		t.Fatal(err)
	}
	if e.Hierarchy.Paths() == before {
		t.Fatal("link burst did not refresh the planning snapshot")
	}
	e.audit(t, "link burst")
	e.RT.RunFor(10)

	// Migrate q2 onto a fresh plan for the repriced network.
	fresh, err := e.Replan(q2.Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Migrate(q2.Query.ID, fresh); err != nil {
		t.Fatal(err)
	}
	if e.RT.DeployedPlan(q2.Query.ID) != fresh {
		t.Fatal("migration not recorded")
	}
	e.audit(t, "migrate")
	e.RT.RunFor(10)

	// Fail the node of an operator that is neither a source nor a sink, so
	// its query can be re-planned around the hole.
	replan := func(q *query.Query) (*query.PlanNode, error) {
		res, err := e.PlanQuery(q, AlgoTopDown, e.Registry)
		return res.Plan, err
	}
	endpoint := map[netgraph.NodeID]bool{e.sink: true, 5: true}
	for i := 0; i < e.Catalog.NumStreams(); i++ {
		endpoint[e.Catalog.Stream(query.StreamID(i)).Source] = true
	}
	victim := netgraph.NodeID(-1)
	for _, d := range []Deployment{q1, q2, q3} {
		for _, op := range e.RT.DeployedPlan(d.Query.ID).Operators() {
			if !endpoint[op.Loc] {
				victim = op.Loc
			}
		}
	}
	if victim < 0 {
		t.Fatal("every operator sits on a source or sink; pick another seed")
	}
	rec, err := e.FailNode(victim, replan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Recovered) == 0 || len(rec.Failed) != 0 {
		t.Fatalf("failing node %d: %+v, want every affected query recovered", victim, rec)
	}
	if e.Live(victim) {
		t.Fatal("failed node still live")
	}
	e.audit(t, "fail node")
	e.RT.RunFor(10)

	if err := e.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	e.audit(t, "recover node")

	for _, d := range []Deployment{q1, q2, q3} {
		if _, err := e.Undeploy(d); err != nil {
			t.Fatal(err)
		}
		e.audit(t, "undeploy")
	}
	if n := e.Registry.Len(); n != 0 {
		t.Errorf("%d advertisements survive a full teardown: %v", n, e.Registry.All())
	}
	if ledger := e.tracker.Snapshot(); len(ledger) != 0 {
		t.Errorf("load ledger not empty after a full teardown: %v", ledger)
	}
	if n := len(e.RT.DeployedQueries()); n != 0 {
		t.Errorf("%d queries still deployed", n)
	}

	// A failure that drops a CQL deployment unpins its statement, which
	// stays prepared while another deployment of the text stands.
	f := newTestEngine(t, 3, 100)
	const stmt = "SELECT * FROM S0, S1, S2"
	a, err := deploy(f)(f.PlanCQL(stmt, f.sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	b, err := deploy(f)(f.PlanCQL(stmt, 5, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if a.stmt != b.stmt || f.tableLen() != 1 {
		t.Fatalf("two deployments of one text: %d entries, shared statement %v; want 1, true", f.tableLen(), a.stmt == b.stmt)
	}
	if rec, err = f.FailNode(5, f.Replan); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rec.Failed, b.Query.ID) || f.tableLen() != 1 {
		t.Fatalf("failing b's sink: %+v, %d entries; want b failed and a's entry standing", rec, f.tableLen())
	}
	f.audit(t, "failing the sink of a CQL deployment")
	if _, err := f.Undeploy(a); err != nil {
		t.Fatal(err)
	}
	if n := f.tableLen(); n != 0 {
		t.Fatalf("table holds %d entries after the last deployment of the text left", n)
	}
}

// TestRetractionRules pins the two retraction rules side by side on the
// same pair of queries, the second reusing the first's join, and what
// each undeploy reports. Under a runtime an advertisement dies when its
// operator does, and the reused operator outlives its creator's undeploy;
// planning-only bookkeeping has no runtime to ask and retracts by owner.
func TestRetractionRules(t *testing.T) {
	e := newTestEngine(t, 3, 100)
	q1 := e.start(t, AlgoTopDown, e.sink, 0, 1)
	q2 := e.start(t, AlgoTopDown, e.sink, 0, 1, 2)
	if q2.Plan.DerivedLeaves() == 0 {
		t.Fatalf("second query %s does not reuse the first's operator; pick another seed", q2.Plan)
	}
	sig, at := q1.Query.SigOf(q1.Plan.Mask), q1.Plan.Loc // q1's root join, the operator q2 reads
	if n, err := e.Undeploy(q1); n != 0 || err != nil {
		t.Fatalf("undeploy of the creator retracted %d (%v), want 0", n, err)
	}
	e.audit(t, "undeploy of the creator")
	if e.RT.Operator(sig, at) == nil {
		t.Fatal("reused operator died with its creator")
	}
	if len(e.Registry.Lookup(sig)) == 0 {
		t.Error("engine retracted the advertisement of an operator that still runs")
	}
	if n, err := e.Undeploy(q2); n != 2 || err != nil {
		t.Fatalf("undeploy of the reuser retracted %d (%v), want its join and the one it reused", n, err)
	}
	e.audit(t, "undeploy of the reuser")
	if n := e.Registry.Len(); n != 0 {
		t.Errorf("%d advertisements outlive their operators", n)
	}

	p := newTestEngine(t, 3, 100).System // same parts, no runtime driven
	d1, err := deploy(p)(p.Plan([]query.StreamID{0, 1}, e.sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := deploy(p)(p.Plan([]query.StreamID{0, 1, 2}, e.sink, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Undeploy(d1); n != 1 || err != nil || len(p.Registry.Lookup(sig)) != 0 {
		t.Errorf("planning-only undeploy retracted %d (%v), want its owner's one advertisement", n, err)
	}
	if n, err := p.Undeploy(d2); n != 1 || err != nil {
		t.Errorf("planning-only undeploy of the reuser retracted %d (%v), want its own join", n, err)
	}
}

// TestOneDeployShape: both halves of the engine commit and undeploy
// through one method each, of one shape. One deploy-only CQL sequence,
// planned with PlanCQL and committed with Deploy, gives the same plans
// and costs at every step, and the same advertisements and prepared table
// at the end, on a planning-only System as on an Engine over identical
// parts. It has no undeploys: the two halves retract by different rules
// (TestRetractionRules).
func TestOneDeployShape(t *testing.T) {
	var _ interface{ Deploy(Deployment) error } = (*System)(nil)
	var _ interface{ Deploy(Deployment) error } = (*Engine)(nil)
	var _ interface{ Undeploy(Deployment) (int, error) } = (*System)(nil)
	var _ interface{ Undeploy(Deployment) (int, error) } = (*Engine)(nil)
	sys, e := newTestEngine(t, 3, 100).System, newTestEngine(t, 3, 100)
	pool := []string{
		"SELECT * FROM S0, S1",
		"SELECT * FROM S0, S1, S2",
		"SELECT * FROM S0, S1, S2, S3",
		"SELECT * FROM S2, S3",
		"SELECT S0.A, S2.B FROM S0, S2 WHERE S0.A = S2.A",
		"SELECT * FROM S1, S3 WHERE S1.B < 0.5",
		"SELECT * FROM S1, S3 WHERE S1.B < 0.25", // contained in the previous
		"SELECT * FROM S0, S1, S3 WHERE S0.A > 0.4 WINDOW 10 AGGREGATE COUNT",
		"SELECT * FROM S0, S2, S3 WHERE S2.A < 0.6 AND S3.B > 0.1",
		"SELECT * FROM S0 WHERE S0.A < 0.2 AND S0.A > 0.7", // provably empty
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		stmt, sink := pool[rng.Intn(len(pool))], netgraph.NodeID(rng.Intn(32))
		algo := []Algorithm{AlgoTopDown, AlgoBottomUp}[rng.Intn(2)]
		a, errA := deploy(sys)(sys.PlanCQL(stmt, sink, algo))
		b, errB := deploy(e)(e.PlanCQL(stmt, sink, algo))
		if errA != nil || errB != nil {
			t.Fatalf("#%d %q: system %v, engine %v", i, stmt, errA, errB)
		}
		if a.Plan.String() != b.Plan.String() || a.Cost != b.Cost {
			t.Fatalf("#%d %q: system plans %s at %v, engine %s at %v", i, stmt, a.Plan, a.Cost, b.Plan, b.Cost)
		}
	}
	e.audit(t, "the sequence")
	if n := sys.tableLen(); n == 0 || n != e.tableLen() {
		t.Fatalf("prepared tables hold %d entries on the system, %d on the engine; want equal and nonzero", n, e.tableLen())
	}
	advertised := func(s *System) []string {
		var out []string
		for _, ad := range s.Registry.All() {
			out = append(out, fmt.Sprintf("%+v", ad))
		}
		slices.Sort(out)
		return out
	}
	if got, want := advertised(e.System), advertised(sys); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("engine advertises\n%v\nplanning-only system\n%v", got, want)
	}
}

// TestEngineControllerMirror attaches the controller, shifts a live tap
// away from the catalog's rate, and checks that once the controller has
// migrated, the registry and the ledger match what the runtime hosts —
// the mirror no client has to write.
func TestEngineControllerMirror(t *testing.T) {
	const until = 400.0
	e := newTestEngine(t, 3, until)
	e.start(t, AlgoTopDown, e.sink, 0, 1)
	e.start(t, AlgoBottomUp, 5, 2, 3)
	migrations := 0
	e.OnMigrate = func(q *query.Query, old, fresh *query.PlanNode, rep iflow.MigrationReport) {
		migrations++
		if e.RT.DeployedPlan(q.ID) != fresh {
			t.Errorf("OnMigrate saw query %d before the engine mirrored its migration", q.ID)
		}
		e.audit(t, "controller migration")
	}
	ctl := e.AttachController(adapt.Config{Interval: 15})
	e.RT.RunFor(30)
	// The first query ships S0 to S1's node for the join; at 40x the rate
	// the catalog assumed, that placement is wrong.
	if taps, err := e.SetLiveRate(0, 40*e.Catalog.Stream(0).Rate); err != nil || taps != 1 {
		t.Fatalf("live rate shift: %d taps, %v", taps, err)
	}
	e.RT.RunFor(until - 30)
	if st := ctl.Stats(); st.Migrations == 0 || st.Migrations != migrations {
		t.Fatalf("controller reports %+v, engine mirrored %d; want at least one", st, migrations)
	}
	e.audit(t, "controlled run")
}

// TestControllerFollowsTheRuntime holds an attached controller to the
// runtime's deployed set: a query deployed after attaching is checked at
// the next step, and a query undeployed or dropped by a node failure is
// not, with no call from the engine to tell it.
func TestControllerFollowsTheRuntime(t *testing.T) {
	const until = 400.0
	e := newTestEngine(t, 3, until)
	gone := e.start(t, AlgoTopDown, e.sink, 0, 1)
	e.start(t, AlgoTopDown, e.sink, 1, 2)
	e.start(t, AlgoTopDown, e.sink, 2, 3)
	// The steps below are the test's: the loop's own first tick lies
	// past the horizon.
	ctl := e.AttachController(adapt.Config{Interval: 2 * until})
	step := func(want int) {
		t.Helper()
		before := ctl.Stats().Checks
		e.RT.RunFor(10)
		ctl.Step()
		if got := ctl.Stats().Checks - before; got != want {
			t.Fatalf("step checked %d queries, want %d (running %v)", got, want, e.RT.DeployedQueries())
		}
	}
	step(3)

	// A fourth query, its sink on a node that hosts no source and no
	// other sink, so failing that node drops it and only it.
	used := map[netgraph.NodeID]bool{e.sink: true}
	for id := 0; id < 4; id++ {
		used[e.Catalog.Stream(query.StreamID(id)).Source] = true
	}
	v := netgraph.NodeID(0)
	for used[v] {
		v++
	}
	doomed := e.start(t, AlgoTopDown, v, 0, 3)
	step(4)

	if _, err := e.Undeploy(gone); err != nil {
		t.Fatal(err)
	}
	rec, err := e.FailNode(v, e.Replan)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Failed, []int{doomed.Query.ID}) {
		t.Fatalf("failing node %d dropped %v, want [%d]", v, rec.Failed, doomed.Query.ID)
	}
	e.audit(t, "undeploy and failure")
	step(2)
	e.audit(t, "controlled steps")
}

// TestEngineRuntimeOwnsCostSnapshot holds NewEngine's one all-pairs
// computation to its two promises: the runtime starts on the snapshot a
// fresh computation gives, and on a copy of the hierarchy's, so the
// runtime's refresh chain, which recycles its retired snapshot, never
// writes into a snapshot the planning side handed out.
func TestEngineRuntimeOwnsCostSnapshot(t *testing.T) {
	e := newTestEngine(t, 5, 100)
	start, pre := e.RT.Cost, e.Hierarchy.Paths()
	samePaths(t, "runtime at start", start, e.Graph.ShortestPaths(netgraph.MetricCost))
	if start == pre {
		t.Fatal("the runtime shares the hierarchy's snapshot")
	}
	saved := pre.Clone()
	for _, l := range e.Graph.Links()[:2] {
		if err := e.UpdateLinkCosts(iflow.LinkCostUpdate{A: l.A, B: l.B, Cost: 3 * l.Cost}); err != nil {
			t.Fatal(err)
		}
	}
	if e.RT.Cost != start {
		t.Fatal("two refreshes did not recycle the runtime's starting snapshot")
	}
	samePaths(t, "runtime after two updates", e.RT.Cost, e.Graph.ShortestPaths(netgraph.MetricCost))
	samePaths(t, "hierarchy's pre-update snapshot", pre, saved)
}

// samePaths compares two snapshots bit for bit: every distance and every
// shortest path.
func samePaths(t *testing.T, what string, got, want *netgraph.Paths) {
	t.Helper()
	n := len(want.Row(0))
	for a := range n {
		for b := range n {
			u, v := netgraph.NodeID(a), netgraph.NodeID(b)
			if math.Float64bits(got.Dist(u, v)) != math.Float64bits(want.Dist(u, v)) ||
				!slices.Equal(got.Path(u, v), want.Path(u, v)) {
				t.Fatalf("%s: %d→%d reads %v via %v, want %v via %v", what, a, b,
					got.Dist(u, v), got.Path(u, v), want.Dist(u, v), want.Path(u, v))
			}
		}
	}
}

// TestSystemsShareAHierarchy holds NewSystem to its rule: a hierarchy
// records into its builder's registry, not into each system's, so any
// number of systems may plan and commit over one at once (the race
// detector checks the sharing). System i's catalog holds streams
// 0..4i+3 and its queries join only 4i..4i+3, so an ad over any other
// stream would be another system's; each registry must also equal the
// one a serial replay of the same rounds builds.
func TestSystemsShareAHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := netgraph.MustTransitStub(32, rng)
	h, err := hierarchy.Build(g, g.ShortestPaths(netgraph.MetricCost), 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	const systems, rounds, streams = 4, 20, 4
	run := func(i int) (*System, error) {
		rng := rand.New(rand.NewSource(int64(i)))
		cat := query.NewCatalog(0.01)
		for s := 0; s < (i+1)*streams; s++ {
			cat.Add(fmt.Sprintf("S%d", s), 10+40*rng.Float64(), netgraph.NodeID(rng.Intn(32)))
		}
		sys := NewSystem(g, h, cat, obs.NewRegistry())
		for r := 0; r < rounds; r++ {
			var srcs []query.StreamID
			for _, p := range rng.Perm(streams)[:2+rng.Intn(streams-1)] {
				srcs = append(srcs, query.StreamID(i*streams+p))
			}
			d, err := sys.Plan(srcs, netgraph.NodeID(rng.Intn(32)), []Algorithm{AlgoTopDown, AlgoBottomUp}[r%2])
			if err != nil {
				return nil, err
			}
			if err := sys.Deploy(d); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	got, errs := make([]*System, systems), make([]error, systems)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	for i, sys := range got {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		ads := sys.Registry.All()
		if len(ads) == 0 {
			t.Fatalf("system %d advertised nothing", i)
		}
		for _, ad := range ads {
			for _, s := range ad.Streams {
				if int(s)/streams != i {
					t.Errorf("system %d holds an ad over stream %d: %s", i, s, ad.Sig)
				}
			}
		}
		serial, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := serial.Registry.All(); !reflect.DeepEqual(ads, want) {
			t.Errorf("system %d advertises\n%+v\na serial replay\n%+v", i, ads, want)
		}
	}
}
