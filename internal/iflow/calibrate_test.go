package iflow

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// The catalog starts with wrong statistics; after running the engine and
// calibrating, the planning model must track the engine's empirical
// behaviour (rates from taps, selectivities from join counters).
func TestCalibrateTracksEmpiricalStats(t *testing.T) {
	w := makeTestWorld(t, 18)
	cfg := DefaultConfig()
	rt := New(w.g, cfg, 61)
	const horizon = 400.0
	win := rt.NewStatsWindow()
	if err := rt.Deploy(w.q, w.plan, w.cat, horizon); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(horizon)

	updated := rt.Calibrate(w.cat, w.q, w.plan, win)
	if updated == 0 {
		t.Fatal("nothing calibrated")
	}

	// Tap rates must now match measurements (Poisson: within ~15%).
	for _, leaf := range w.plan.Leaves() {
		if leaf.In.Derived {
			continue
		}
		ids := w.q.StreamsOf(leaf.Mask)
		measured := rt.WindowedRate(win, leaf.In.Sig, leaf.Loc)
		if measured <= 0 {
			t.Fatalf("no emissions from %s", leaf.In.Sig)
		}
		if got := w.cat.Stream(ids[0]).Rate; math.Abs(got-measured) > 1e-9 {
			t.Errorf("stream %d rate %g != measured %g", ids[0], got, measured)
		}
	}

	// Any calibrated pairwise selectivity approximates the engine's
	// intrinsic 2·Window/KeyDomain (loose bound: windows + Poisson noise).
	engineSel := 2 * Window / float64(cfg.KeyDomain)
	calibrated := false
	var checkJoin func(n *query.PlanNode)
	checkJoin = func(n *query.PlanNode) {
		if n == nil || n.IsLeaf() || n.IsUnary() {
			return
		}
		checkJoin(n.L)
		checkJoin(n.R)
		if n.L.IsLeaf() && n.R.IsLeaf() && !n.L.In.Derived && !n.R.In.Derived {
			l := w.q.StreamsOf(n.L.Mask)[0]
			r := w.q.StreamsOf(n.R.Mask)[0]
			sel := w.cat.Selectivity(l, r)
			if sel <= 0 || sel > 5*engineSel || sel < engineSel/5 {
				t.Errorf("calibrated sel %g far from engine %g", sel, engineSel)
			}
			calibrated = true
		}
	}
	checkJoin(w.plan)
	if !calibrated {
		t.Skip("plan has no base-base join on this seed")
	}

	// Replanning with calibrated stats still yields a valid plan.
	res, err := core.TopDown(w.h, w.cat, w.q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCalibrateNoData(t *testing.T) {
	w := makeTestWorld(t, 19)
	rt := New(w.g, DefaultConfig(), 62)
	win := rt.NewStatsWindow()
	if got := rt.Calibrate(w.cat, w.q, w.plan, win); got != 0 {
		t.Errorf("calibrated %d stats from zero elapsed time", got)
	}
	if got := rt.Calibrate(w.cat, w.q, w.plan, nil); got != 0 {
		t.Errorf("calibrated %d stats from nil window", got)
	}
	if got := rt.WindowedRate(win, "nope", 0); got != 0 {
		t.Errorf("WindowedRate of missing op = %g", got)
	}
}

// Regression: the old EmpiricalRate divided cumulative counts by total
// lifetime, so a 10× rate shift at time T still read ≈2× at 1.3·T. The
// windowed estimator must reflect the shift within one window, and
// Calibrate must feed the shifted rate into the catalog.
func TestCalibrateWindowedRateShift(t *testing.T) {
	w := makeTestWorld(t, 21)
	rt := New(w.g, DefaultConfig(), 63)
	const warmup = 100.0
	const window = 30.0
	if err := rt.Deploy(w.q, w.plan, w.cat, warmup+window); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(warmup)

	// Pick a base leaf and shift its live tap 10×.
	var leaf *query.PlanNode
	for _, l := range w.plan.Leaves() {
		if !l.In.Derived {
			leaf = l
			break
		}
	}
	if leaf == nil {
		t.Fatal("plan has no base leaf")
	}
	sid := w.q.StreamsOf(leaf.Mask)[0]
	oldRate := rt.Operator(leaf.In.Sig, leaf.Loc).rate
	newRate := oldRate * 10
	win := rt.NewStatsWindow()
	if err := rt.SetSourceRate(leaf.In.Sig, leaf.Loc, newRate); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(window)

	windowed := rt.WindowedRate(win, leaf.In.Sig, leaf.Loc)
	cumulative := float64(rt.Operator(leaf.In.Sig, leaf.Loc).OutCount) / rt.Sim.Now()
	if math.Abs(windowed-newRate) > 0.3*newRate {
		t.Errorf("windowed rate %g not within 30%% of shifted rate %g", windowed, newRate)
	}
	// The cumulative estimator is dominated by the warm-up history: over
	// 100s at r plus 30s at 10r it reads ≈3.1r, nowhere near 10r.
	if cumulative > 0.5*newRate {
		t.Errorf("cumulative estimate %g unexpectedly close to shifted rate %g", cumulative, newRate)
	}

	if updated := rt.Calibrate(w.cat, w.q, w.plan, win); updated == 0 {
		t.Fatal("nothing calibrated")
	}
	got := w.cat.Stream(sid).Rate
	if math.Abs(got-newRate) > 0.3*newRate {
		t.Errorf("calibrated catalog rate %g not within 30%% of shifted rate %g", got, newRate)
	}
}

// SetSourceRate must reject unknown taps and non-positive rates.
func TestSetSourceRateValidation(t *testing.T) {
	w := makeTestWorld(t, 22)
	rt := New(w.g, DefaultConfig(), 64)
	if err := rt.Deploy(w.q, w.plan, w.cat, 10); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetSourceRate("nope", 0, 5); err == nil {
		t.Error("retuned a missing tap")
	}
	var leaf *query.PlanNode
	for _, l := range w.plan.Leaves() {
		if !l.In.Derived {
			leaf = l
			break
		}
	}
	if err := rt.SetSourceRate(leaf.In.Sig, leaf.Loc, 0); err == nil {
		t.Error("accepted zero rate")
	}
	if err := rt.SetSourceRate(leaf.In.Sig, leaf.Loc, 12.5); err != nil {
		t.Error(err)
	}
	if got := rt.Operator(leaf.In.Sig, leaf.Loc).rate; got != 12.5 {
		t.Errorf("tap rate %g after SetSourceRate", got)
	}
}

// StartSource and SetSourceRate must refuse anything but a finite positive
// rate, naming the value, and leave the tap and the event queue untouched:
// +Inf makes every gap zero (the tick re-queues itself at the current
// instant forever), NaN makes the gap — an event time — NaN.
func TestNonFiniteSourceRatesRejected(t *testing.T) {
	w := makeTestWorld(t, 22)
	rt := New(w.g, DefaultConfig(), 64)
	op, err := rt.StartSource("tap", 3, 12.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	pending := rt.Sim.Pending()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		want := fmt.Sprintf("rate %g ", bad)
		if _, err := rt.StartSource("fresh", 4, bad, 100); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("StartSource at rate %g: error %v", bad, err)
		}
		if rt.Operator("fresh", 4) != nil {
			t.Errorf("StartSource at rate %g registered a tap", bad)
		}
		if err := rt.SetSourceRate("tap", 3, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SetSourceRate to %g: error %v", bad, err)
		}
		if op.rate != 12.5 || op.expRate != 12.5 || rt.Sim.Pending() != pending {
			t.Errorf("after rate %g: tap at %g (expected %g), %d events pending, want 12.5 and %d",
				bad, op.rate, op.expRate, rt.Sim.Pending(), pending)
		}
	}
	rt.RunFor(50) // returns: no tick re-queues itself at the instant it fires in
}

// Calibrated statistics must survive operator reuse across a migration:
// the kept first-level join keeps its counters accumulating through the
// move, a window rolled at migration time measures only post-migration
// traffic, and a second Calibrate over that window still reproduces the
// engine's intrinsic selectivity — it neither resets to catalog defaults
// nor double-counts pre-migration history. This is the interaction the
// closed-loop controller depends on: measure, migrate, keep measuring.
func TestCalibrateSurvivesMigration(t *testing.T) {
	w := makeMigrateWorld(t, 7)
	cfg := DefaultConfig()
	rt := New(w.g, cfg, 64)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	planB := w.leftDeep([]netgraph.NodeID{5, 8, 7}) // middle join moves; A⋈B kept at 5

	const phase = 300.0
	if err := rt.Deploy(w.q, planA, w.cat, 2*phase+100); err != nil {
		t.Fatal(err)
	}
	win := rt.NewStatsWindow()
	rt.RunFor(phase)

	if updated := rt.Calibrate(w.cat, w.q, planA, win); updated == 0 {
		t.Fatal("nothing calibrated before migration")
	}
	a, b := w.q.Sources[0], w.q.Sources[1]
	engineSel := 2 * Window / float64(cfg.KeyDomain)
	selBefore := w.cat.Selectivity(a, b)
	if selBefore <= 0 || selBefore > 5*engineSel || selBefore < engineSel/5 {
		t.Fatalf("pre-migration calibrated sel %g far from engine %g", selBefore, engineSel)
	}

	keptSig := w.q.SigOf(query.Mask(3))
	keptOp := rt.Operator(keptSig, 5)
	if keptOp == nil {
		t.Fatal("first join not deployed")
	}
	outBefore := keptOp.OutCount

	rep, err := rt.Migrate(w.q, planB, w.cat, 2*phase+100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept == 0 {
		t.Fatalf("migration kept nothing (%s) — operator reuse not exercised", rep)
	}

	// Roll so the next calibration covers exactly the post-migration
	// interval, then keep running on the migrated plan.
	win.Roll(rt)
	rt.RunFor(phase)

	if rt.Operator(keptSig, 5) != keptOp {
		t.Fatal("kept join was recreated by the migration")
	}
	if keptOp.OutCount <= outBefore {
		t.Error("kept join stopped producing after migration")
	}
	if r := rt.WindowedRate(win, keptSig, 5); r <= 0 {
		t.Errorf("kept join windowed rate %g over post-migration window", r)
	}

	if updated := rt.Calibrate(w.cat, w.q, planB, win); updated == 0 {
		t.Fatal("nothing calibrated after migration")
	}
	selAfter := w.cat.Selectivity(a, b)
	if selAfter <= 0 || selAfter > 5*engineSel || selAfter < engineSel/5 {
		t.Errorf("post-migration calibrated sel %g far from engine %g", selAfter, engineSel)
	}
	// Both estimates measure the same stationary engine behaviour, so the
	// post-migration window must agree with the pre-migration one to well
	// under the 5× sanity band — reuse carried the statistics, not noise.
	if ratio := selAfter / selBefore; ratio > 2 || ratio < 0.5 {
		t.Errorf("sel drifted %gx across migration (%g -> %g)", ratio, selBefore, selAfter)
	}
}
