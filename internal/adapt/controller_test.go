package adapt

import (
	"math"
	"math/rand"
	"testing"

	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// ctlWorld is the standard three-stream testbed for controller tests: a
// 32-node transit-stub network, a hierarchy for Top-Down planning, and a
// deployed Top-Down plan under a runtime.
type ctlWorld struct {
	g    *netgraph.Graph
	h    *hierarchy.Hierarchy
	cat  *query.Catalog
	q    *query.Query
	plan *query.PlanNode
	rt   *iflow.Runtime
}

func makeCtlWorld(t *testing.T, seed int64, horizon float64) *ctlWorld {
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
	q, err := query.NewQuery(0, []query.StreamID{a, b, c}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TopDown(h, cat, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := iflow.New(g, iflow.DefaultConfig(), seed)
	if err := rt.Deploy(q, res.Plan, cat, horizon); err != nil {
		t.Fatal(err)
	}
	return &ctlWorld{g: g, h: h, cat: cat, q: q, plan: res.Plan, rt: rt}
}

func (w *ctlWorld) replan() ReplanFunc {
	return func(q *query.Query) (*query.PlanNode, error) {
		res, err := core.TopDown(w.h, w.cat, q, nil)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
}

// control puts w's runtime under a controller that commits on the bare
// runtime, bounding the lifetime of the sources a migration starts at
// until.
func (w *ctlWorld) control(cfg Config, until float64) *Controller {
	ctl := New(w.rt, w.cat, w.replan(), cfg)
	ctl.Commit = func(qid int, plan *query.PlanNode) (iflow.MigrationReport, error) {
		return w.rt.Migrate(w.rt.DeployedQuery(qid), plan, w.cat, until)
	}
	return ctl
}

// misplace redeploys w's query with every join at the node most expensive
// to reach from the sink, as a drastic network change would leave it, and
// returns that plan.
func (w *ctlWorld) misplace(t *testing.T, horizon float64) *query.PlanNode {
	t.Helper()
	if err := w.rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	far, farD := netgraph.NodeID(0), -1.0
	for v := 0; v < w.g.NumNodes(); v++ {
		if d := w.rt.Cost.Dist(netgraph.NodeID(v), w.q.Sink); d > farD {
			far, farD = netgraph.NodeID(v), d
		}
	}
	var move func(n *query.PlanNode) *query.PlanNode
	move = func(n *query.PlanNode) *query.PlanNode {
		if n.IsLeaf() {
			return query.Leaf(*n.In)
		}
		return query.Join(move(n.L), move(n.R), far, n.Rate)
	}
	bad := move(w.plan)
	if err := w.rt.Deploy(w.q, bad, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	return bad
}

// baseLeaf returns the plan leaf tapping the given catalog stream.
func (w *ctlWorld) baseLeaf(t *testing.T, id query.StreamID) *query.PlanNode {
	t.Helper()
	for _, l := range w.plan.Leaves() {
		if l.In.Derived {
			continue
		}
		ids := w.q.StreamsOf(l.Mask)
		if len(ids) == 1 && ids[0] == id {
			return l
		}
	}
	t.Fatalf("no base leaf for stream %d", id)
	return nil
}

// A drastic live rate shift must flow through the whole loop: drift
// detection, catalog calibration, re-plan, and a migration to a plan
// that fits the new rates — while the query keeps flowing.
func TestControllerClosesTheLoop(t *testing.T) {
	const horizon = 600.0
	w := makeCtlWorld(t, 3, horizon)
	ctl := w.control(Config{Interval: 15}, horizon)
	var history []string
	commit := ctl.Commit
	ctl.Commit = func(qid int, plan *query.PlanNode) (iflow.MigrationReport, error) {
		rep, err := commit(qid, plan)
		if err == nil {
			history = append(history, plan.String())
		}
		return rep, err
	}

	// Warm up at assumed rates, then shift stream C's tap 20×: the heavy
	// stream is now C, so placements serving the old rates are wrong.
	w.rt.RunFor(50)
	cID := w.q.Sources[2]
	leaf := w.baseLeaf(t, cID)
	if err := w.rt.SetSourceRate(leaf.In.Sig, leaf.Loc, w.cat.Stream(cID).Rate*20); err != nil {
		t.Fatal(err)
	}
	ctl.Run(horizon)
	w.rt.RunFor(horizon - w.rt.Sim.Now())

	st := ctl.Stats()
	if st.Checks == 0 {
		t.Fatal("controller never checked")
	}
	// The calibrated catalog must track the shifted rate.
	if got := w.cat.Stream(cID).Rate; got < 100 {
		t.Errorf("catalog rate for shifted stream = %g, want ~200", got)
	}
	if st.Migrations == 0 {
		t.Fatal("controller never migrated despite a 20x rate shift")
	}
	// Anti-oscillation: no plan may reappear immediately after being
	// migrated away from (A→B→A pair).
	for i := 2; i < len(history); i++ {
		if history[i] == history[i-2] && history[i] != history[i-1] {
			t.Fatalf("oscillation: plan %q revisited at migrations %d and %d", history[i], i-2, i)
		}
	}
	// Migrations must be sparse, not once-per-interval churn.
	if st.Migrations > 4 {
		t.Errorf("%d migrations for one rate shift — controller is churning", st.Migrations)
	}
	if w.rt.Sink(w.q.ID).Tuples == 0 {
		t.Error("query starved under control")
	}
	if err := w.rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// Under stable conditions (no drift, no graph change) the controller
// must not even re-plan: the drift gate is the cheap path.
func TestControllerIdleWhenStable(t *testing.T) {
	const horizon = 300.0
	w := makeCtlWorld(t, 5, horizon)
	ctl := w.control(Config{Interval: 15}, horizon)
	ctl.Run(horizon)
	w.rt.RunFor(horizon)
	st := ctl.Stats()
	if st.Migrations != 0 {
		t.Errorf("%d migrations under stable conditions", st.Migrations)
	}
	// Poisson noise stays under the default 20% drift threshold over
	// 15-second windows at these rates, so the replan path stays cold.
	if st.Replans > st.Checks/2 {
		t.Errorf("replanned %d of %d checks despite no drift", st.Replans, st.Checks)
	}
}

// ModeNever measures but never migrates; ModeAlways migrates whenever
// the fresh plan differs. Both must keep flowing.
func TestControllerModes(t *testing.T) {
	const horizon = 400.0
	for _, mode := range []Mode{ModeNever, ModeAlways} {
		w := makeCtlWorld(t, 7, horizon)
		ctl := w.control(Config{Interval: 15, Mode: mode}, horizon)
		w.rt.RunFor(30)
		cID := w.q.Sources[2]
		leaf := w.baseLeaf(t, cID)
		if err := w.rt.SetSourceRate(leaf.In.Sig, leaf.Loc, w.cat.Stream(cID).Rate*20); err != nil {
			t.Fatal(err)
		}
		ctl.Run(horizon)
		w.rt.RunFor(horizon - w.rt.Sim.Now())
		st := ctl.Stats()
		if mode == ModeNever && st.Migrations != 0 {
			t.Errorf("ModeNever migrated %d times", st.Migrations)
		}
		if st.Checks == 0 {
			t.Errorf("mode %v never checked", mode)
		}
		if w.rt.Sink(w.q.ID).Tuples == 0 {
			t.Errorf("mode %v starved the query", mode)
		}
		if err := w.rt.CheckInvariants(nil); err != nil {
			t.Fatalf("mode %v invariants: %v", mode, err)
		}
	}
}

// A deployment that is badly placed for the present network — as it would
// be after a drastic network change — must be migrated away from even
// though no stream rate drifted: a graph change alone re-opens planning,
// and the gain of leaving a mis-placed plan clears every gate. The query
// keeps flowing across the move.
func TestControllerMigratesAwayFromBadPlan(t *testing.T) {
	const horizon = 300.0
	w := makeCtlWorld(t, 9, horizon)
	bad := w.misplace(t, horizon)
	if bad.Cost(w.rt.Cost.Dist, w.q.Sink) < 1.10*w.plan.Cost(w.rt.Cost.Dist, w.q.Sink) {
		t.Fatal("misplacement not bad enough on this topology; pick another seed")
	}
	ctl := w.control(Config{Interval: 10}, horizon)
	// The network change that left the plan stranded: any link repricing
	// bumps the graph version the controller watches.
	l := w.g.Links()[0]
	if err := w.rt.UpdateLinkCost(l.A, l.B, l.Cost*1.01); err != nil {
		t.Fatal(err)
	}
	if err := w.h.RebindRows(w.g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
		t.Fatal(err)
	}
	ctl.Run(horizon)
	w.rt.RunFor(horizon)

	if st := ctl.Stats(); st.Checks == 0 || st.Migrations == 0 {
		t.Fatalf("checks=%d migrations=%d: no migration away from the misplaced plan", st.Checks, st.Migrations)
	}
	if w.rt.DeployedPlan(w.q.ID) == bad {
		t.Error("the misplaced plan still runs")
	}
	if w.rt.Sink(w.q.ID).Tuples == 0 {
		t.Error("query starved across migration")
	}
}

// RealizedSavings is a byte rate, like PredictedSavings: the drop in the
// window byte rate across a migration step, in bytes/s. One forced
// migration (ModeAlways, away from a misplaced plan) splits the run into
// the window before it and the window after it, so the expected figure is
// the difference of the two windows' TotalBytes rates.
func TestRealizedSavingsIsByteRate(t *testing.T) {
	w := makeCtlWorld(t, 9, 300)
	w.misplace(t, 300)
	ctl := w.control(Config{Mode: ModeAlways}, math.Inf(1))

	w.rt.RunFor(20)
	before := w.rt.TotalBytes / w.rt.Sim.Now() // the window opened at time 0
	ctl.Step()
	if st := ctl.Stats(); st.Migrations != 1 || st.RealizedSavings != 0 {
		t.Fatalf("first step: %+v, want one migration and nothing realized yet", st)
	}
	// The migration ships state between the two windows: the next one opens
	// after it.
	t1, b1 := w.rt.Sim.Now(), w.rt.TotalBytes
	w.rt.RunFor(20)
	after := (w.rt.TotalBytes - b1) / (w.rt.Sim.Now() - t1)
	ctl.Step()
	if after >= before {
		t.Fatalf("migrating off the misplaced plan did not lower the byte rate: %g -> %g B/s", before, after)
	}
	if got := ctl.Stats().RealizedSavings; got != before-after {
		t.Errorf("RealizedSavings = %g, want the window byte-rate drop %g B/s", got, before-after)
	}
}

// The controller follows the runtime's deployed set: a query the runtime
// stops running leaves control at the next step, and with it the policy
// (cooldown, revert holdoff, pending mark) the controller kept for it.
func TestControllerForgetsUndeployedQueries(t *testing.T) {
	w := makeCtlWorld(t, 9, 300)
	w.misplace(t, 300)
	ctl := w.control(Config{Mode: ModeAlways}, 300)
	w.rt.RunFor(20)
	ctl.Step()
	if st := ctl.Stats(); st.Checks != 1 || st.Migrations != 1 || !HasPolicy(ctl, w.q.ID) {
		t.Fatalf("first step: %+v, policy kept %v; want one check, one migration and a policy entry",
			st, HasPolicy(ctl, w.q.ID))
	}
	if err := w.rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	w.rt.RunFor(20)
	ctl.Step()
	if st := ctl.Stats(); st.Checks != 1 {
		t.Errorf("the undeployed query was checked: %+v", st)
	}
	if HasPolicy(ctl, w.q.ID) {
		t.Error("the undeployed query's policy outlived the step")
	}
}
