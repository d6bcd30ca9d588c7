package iflow

import (
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// A tuple in flight is data in the event queue's slab and a join window
// expires by reslicing, so a steady-state run allocates only when a
// window's append outgrows its array — once per window-length of inserts.
// The closure-per-delivery path this replaced sat at 5.9 per sent tuple.
func TestRunForAllocs(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(3 * rt.cfg.Window) // windows full, slab and heap at their working size
	const runs = 20
	sent := rt.TuplesSent
	allocs := testing.AllocsPerRun(runs, func() { rt.RunFor(5) })
	perRun := float64(rt.TuplesSent-sent) / (runs + 1) // AllocsPerRun adds a warm-up call
	if perRun < 100 {
		t.Fatalf("only %.0f tuples sent per run; the plan is not flowing", perRun)
	}
	if got := allocs / perRun; got > 0.1 {
		t.Errorf("%.3f allocations per sent tuple (%.0f per run of %.0f tuples), want ≤ 0.1", got, allocs, perRun)
	}
}

// expireOld is the window expiry this PR replaced, kept verbatim as the
// definition the reslicing one is held to.
func expireOld(w []Tuple, horizon float64) []Tuple {
	i := 0
	for i < len(w) && w[i].Born < horizon {
		i++
	}
	if i == 0 {
		return w
	}
	return append(w[:0], w[i:]...)
}

// TestExpireKeepsWindow drives one join through more than a hundred
// window turnovers next to a shadow pair of windows maintained by
// expireOld. Born is not monotone in arrival order (join outputs carry
// min(Born)), so expiry is by prefix, not by age, and the shadow pins that
// too. After every tuple the live windows must equal the shadow — contents,
// order, StateBytes — and the array behind each (the dead prefix shed since
// it was allocated plus what the slice can still reach) must stay within a
// constant factor of the live length.
func TestExpireKeepsWindow(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 1)
	op := &Operator{key: opKey{sig: "J", node: 3}, window: rt.cfg.Window, refs: 1}
	rt.ops[op.key] = op
	rng := rand.New(rand.NewSource(5))

	var shadow [2][]Tuple
	var dead, reallocs [2]int // per side: prefix dropped since the last reallocation
	now := 0.0
	for now < 130*op.window {
		now += rng.ExpFloat64() / 30
		rt.Sim.RunUntil(now)
		s := side(rng.Intn(2))
		tup := Tuple{Key: rng.Int63n(50), Size: float64(50 + rng.Intn(100)), Born: now - 2*rng.Float64()}

		live := [2]*[]Tuple{&op.left, &op.right}
		lenBefore := [2]int{len(op.left), len(op.right)}
		capBefore := [2]int{cap(op.left), cap(op.right)}
		rt.receive(op, s, tup)
		for i := range shadow {
			shadow[i] = expireOld(shadow[i], now-op.window)
		}
		shadow[s] = append(shadow[s], tup)

		var bytes float64
		for i := range shadow {
			if !slices.Equal(*live[i], shadow[i]) {
				t.Fatalf("t=%.3f side %d: live window (%d tuples) differs from the old definition's (%d)",
					now, i, len(*live[i]), len(shadow[i]))
			}
			for _, x := range shadow[i] {
				bytes += x.Size
			}
			expired := lenBefore[i] - len(*live[i])
			if side(i) == s {
				expired++
			}
			if cap(*live[i]) == capBefore[i]-expired {
				dead[i] += expired // same array, head moved up
			} else {
				dead[i], reallocs[i] = 0, reallocs[i]+1
			}
			if n, array := len(*live[i]), dead[i]+cap(*live[i]); array > 4*n+64 {
				t.Fatalf("t=%.3f side %d: %d live tuples sit in an array of %d (%d dead in front)",
					now, i, n, array, dead[i])
			}
		}
		if got := op.StateBytes(rt.cfg.TupleSize); got != bytes {
			t.Fatalf("t=%.3f: StateBytes %g, live windows hold %g", now, got, bytes)
		}
	}
	if reallocs[0] < 10 || reallocs[1] < 10 {
		t.Errorf("arrays reallocated %v times over 130 windows; the dead prefix is not being shed", reallocs)
	}
	if rt.WindowExpired < 100*int64(len(op.left)+len(op.right)) {
		t.Errorf("only %d tuples expired against %d live: fewer than 100 turnovers",
			rt.WindowExpired, len(op.left)+len(op.right))
	}
}

// After a hundred turnovers on a deployed plan, a Migrate that moves a
// join ships exactly its live windows: same tuples, same order, nothing
// from the dead prefix.
func TestMigrateShipsLiveWindowOnly(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(100 * rt.cfg.Window)
	sig := w.q.SigOf(query.Mask(7))
	old := rt.Operator(sig, 6)
	wantL, wantR := slices.Clone(old.left), slices.Clone(old.right)
	if len(wantL) == 0 || len(wantR) == 0 {
		t.Fatalf("moved join holds %d+%d tuples; nothing to ship", len(wantL), len(wantR))
	}
	wantBytes := old.StateBytes(rt.cfg.TupleSize)
	rep, err := rt.Migrate(w.q, w.leftDeep([]netgraph.NodeID{5, 8, 7}), w.cat, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	moved := rt.Operator(sig, 8)
	if moved == nil || !slices.Equal(moved.left, wantL) || !slices.Equal(moved.right, wantR) {
		t.Fatal("moved join does not hold exactly the old host's live windows")
	}
	if rep.StateShipped != int64(len(wantL)+len(wantR)) || rep.BytesShipped != wantBytes {
		t.Errorf("shipped %d tuples / %g bytes, live state was %d / %g",
			rep.StateShipped, rep.BytesShipped, len(wantL)+len(wantR), wantBytes)
	}
	if !old.retired {
		t.Error("the old host's instance was not marked retired")
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFlagMatchesMap: receive and the source tick test op.retired
// where they used to hash the operator's key and compare pointers. Through
// a seeded churn of deploys, undeploys, migrations and node failures over
// four overlapping queries, every operator ever seen must satisfy
// retired == (rt.ops[op.key] != op) after every step.
func TestRetiredFlagMatchesMap(t *testing.T) {
	base := makeMigrateWorld(t, 6)
	worlds := []*migrateWorld{base}
	for id, pick := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3}} {
		ids := make([]query.StreamID, len(pick))
		for i, p := range pick {
			ids[i] = base.q.Sources[p]
		}
		q, err := query.NewQuery(id+1, ids, netgraph.NodeID(10+id))
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, &migrateWorld{g: base.g, cat: base.cat, q: q, rt: query.BuildRates(base.cat, q)})
	}
	rt := New(base.g, DefaultConfig(), 9)
	rng := rand.New(rand.NewSource(77))
	hosts := []netgraph.NodeID{5, 6, 7, 8}
	plan := func(w *migrateWorld) *query.PlanNode {
		locs := make([]netgraph.NodeID, w.q.K()-1)
		for i := range locs {
			locs[i] = hosts[rng.Intn(len(hosts))]
		}
		return w.leftDeep(locs)
	}
	seen := map[*Operator]bool{}
	retiredSeen := 0
	check := func(step int, what string) {
		t.Helper()
		for _, op := range rt.ops {
			seen[op] = true
		}
		retiredSeen = 0
		for op := range seen {
			if gone := rt.ops[op.key] != op; op.retired != gone {
				t.Fatalf("step %d (%s): %s@%d retired=%v but absent from rt.ops=%v",
					step, what, op.key.sig, op.key.node, op.retired, gone)
			} else if gone {
				retiredSeen++
			}
		}
		if err := rt.CheckInvariants(nil); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
	for step := 0; step < 400; step++ {
		w := worlds[rng.Intn(len(worlds))]
		what := "deploy"
		switch deployed := rt.DeployedPlan(w.q.ID) != nil; {
		case rng.Intn(8) == 0:
			what = "fail"
			// A join host, or node 4: stream A's tap dies with it.
			for _, qid := range rt.FailNode(netgraph.NodeID(4 + rng.Intn(5))) {
				if err := rt.Undeploy(qid); err != nil {
					t.Fatal(err)
				}
			}
		case !deployed:
			if err := rt.Deploy(w.q, plan(w), base.cat, 1e9); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(2) == 0:
			what = "migrate"
			if _, err := rt.Migrate(w.q, plan(w), base.cat, 1e9); err != nil {
				t.Fatal(err)
			}
		default:
			what = "undeploy"
			if err := rt.Undeploy(w.q.ID); err != nil {
				t.Fatal(err)
			}
		}
		check(step, what)
		rt.RunFor(rng.Float64())
		check(step, "run")
	}
	if retiredSeen < 50 {
		t.Errorf("churn retired only %d operators; the scenario is too tame", retiredSeen)
	}
}

// A tuple already in flight toward an operator when it is retired is
// dropped on arrival: counted in TuplesDropped, and settled, so the
// conservation ledger closes once the queue drains.
func TestInFlightToRetiredOperatorSettles(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(2 * rt.cfg.Window)
	// Step to an instant with several deliveries airborne; base taps feed
	// remote joins, so most are operator-bound.
	for rt.InFlight() < 3 {
		if !rt.Sim.Step() {
			t.Fatal("queue drained with the sources still running")
		}
	}
	sink := rt.Sink(w.q.ID)
	inFlight, dropped, delivered := rt.InFlight(), rt.TuplesDropped, sink.Tuples
	if err := rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	if rt.NumOperators() != 0 {
		t.Fatalf("%d operators survive the only query's undeploy", rt.NumOperators())
	}
	rt.Sim.Run() // retired taps stop ticking, so the queue drains
	if rt.InFlight() != 0 {
		t.Errorf("%d tuples still in flight after the queue drained", rt.InFlight())
	}
	gotDropped, gotDelivered := rt.TuplesDropped-dropped, sink.Tuples-delivered
	if gotDropped == 0 || gotDropped+gotDelivered != inFlight {
		t.Errorf("%d tuples were in flight at undeploy: %d dropped + %d reached the sink",
			inFlight, gotDropped, gotDelivered)
	}
}
