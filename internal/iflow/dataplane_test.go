package iflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hnp/internal/des"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// A tuple in flight is data in the event queue's slab and a join window is
// a ring that grows only while its live count does, so a run at steady
// rates allocates nothing per tuple. The closure-per-delivery path sat at
// 5.9 per sent tuple, the append-grown windows at 0.02.
func TestRunForAllocs(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(3 * Window) // windows full, slab and heap at their working size
	const runs = 20
	sent := rt.TuplesSent
	allocs := testing.AllocsPerRun(runs, func() { rt.RunFor(5) })
	perRun := float64(rt.TuplesSent-sent) / (runs + 1) // AllocsPerRun adds a warm-up call
	if perRun < 100 {
		t.Fatalf("only %.0f tuples sent per run; the plan is not flowing", perRun)
	}
	if got := allocs / perRun; got > 0.005 {
		t.Errorf("%.4f allocations per sent tuple (%.0f per run of %.0f tuples), want ≤ 0.005", got, allocs, perRun)
	}
}

// expireOld is the window expiry PR 18 replaced, kept verbatim as the
// definition every later window is held to.
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
// order, StateBytes — and each ring must stay within a constant factor of
// its live length. The arrival rate steps up fivefold for one window in
// every ten, so the rings have to grow and give the space back.
func TestExpireKeepsWindow(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 1)
	op := &Operator{key: opKey{sig: "J", node: 3}, width: query.DefaultTupleWidth, refs: 1}
	rt.ops[op.key] = op
	rng := rand.New(rand.NewSource(5))

	var shadow [2][]Tuple
	var resizes [2]int
	now := 0.0
	for now < 130*Window {
		rate := 30.0
		if int(now/Window)%10 == 4 {
			rate = 150
		}
		now += rng.ExpFloat64() / rate
		rt.Sim.RunUntil(now)
		s := side(rng.Intn(2))
		tup := Tuple{Key: rng.Int63n(50), Size: float64(50 + rng.Intn(100)), Born: now - 2*rng.Float64()}

		capBefore := [2]int{len(op.win[0].ring), len(op.win[1].ring)}
		rt.receive(op, s, tup)
		for i := range shadow {
			shadow[i] = expireOld(shadow[i], now-Window)
		}
		shadow[s] = append(shadow[s], tup)

		var bytes float64
		for i := range shadow {
			live := &op.win[i]
			if !slices.Equal(contents(live), shadow[i]) {
				t.Fatalf("t=%.3f side %d: live window (%d tuples) differs from the old definition's (%d)",
					now, i, live.n, len(shadow[i]))
			}
			for _, x := range shadow[i] {
				bytes += x.Size
			}
			if len(live.ring) != capBefore[i] {
				resizes[i]++
			}
			if len(live.ring) > 4*live.n+64 {
				t.Fatalf("t=%.3f side %d: %d live tuples sit in a ring of %d", now, i, live.n, len(live.ring))
			}
			if err := checkChains(live); err != nil {
				t.Fatalf("t=%.3f side %d: %v", now, i, err)
			}
		}
		if got := op.StateBytes(); got != bytes {
			t.Fatalf("t=%.3f: StateBytes %g, live windows hold %g", now, got, bytes)
		}
	}
	if resizes[0] < 10 || resizes[1] < 10 {
		t.Errorf("rings resized %v times over 130 windows; they are not following the live count", resizes)
	}
	if live := int64(op.win[0].n + op.win[1].n); rt.WindowExpired < 100*live {
		t.Errorf("only %d tuples expired against %d live: fewer than 100 turnovers", rt.WindowExpired, live)
	}
}

// After a hundred turnovers on a deployed plan, a Migrate that moves a
// join ships exactly its live windows: same tuples, same order, nothing
// that had expired.
func TestMigrateShipsLiveWindowOnly(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(100 * Window)
	sig := w.q.SigOf(query.Mask(7))
	old := rt.Operator(sig, 6)
	wantL, wantR := contents(&old.win[leftSide]), contents(&old.win[rightSide])
	if len(wantL) == 0 || len(wantR) == 0 {
		t.Fatalf("moved join holds %d+%d tuples; nothing to ship", len(wantL), len(wantR))
	}
	wantBytes := old.StateBytes()
	rep, err := rt.Migrate(w.q, w.leftDeep([]netgraph.NodeID{5, 8, 7}), w.cat, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	moved := rt.Operator(sig, 8)
	if moved == nil || !slices.Equal(contents(&moved.win[leftSide]), wantL) || !slices.Equal(contents(&moved.win[rightSide]), wantR) {
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
// retired == (rt.ops[op.key] != op) after every step. The same holds for
// the operator a subscription names: it is the operator its key maps to,
// and one emit from any operator reaches, subscription by subscription,
// exactly what a by-key lookup would (see probeEmit).
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
	probes := int64(0) // probe tuples carry keys nothing else has, so they join nothing
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
		linked := 0
		for _, op := range rt.ops {
			for _, sub := range op.subs {
				if sub.op == nil {
					continue
				}
				linked++
				if sub.sink != nil || sub.op != rt.ops[sub.op.key] {
					t.Fatalf("step %d (%s): %s@%d subscribes an operator its consumer's key does not map to",
						step, what, op.key.sig, op.key.node)
				}
			}
			probes++
			if err := probeEmit(rt, op, -probes); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
		}
		if what == "run" && len(rt.ops) > 2 && linked == 0 {
			t.Fatalf("step %d: %d operators ran and no subscription named a consumer operator", step, len(rt.ops))
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

// probeEmit has op emit one tuple of the given key into a scratch event
// queue, checks that the deliveries it queued are the ones a by-key lookup
// of every subscription gives, and hands them on to the real queue at
// their arrival times — the probe is one more output tuple, accounted like
// any other.
func probeEmit(rt *Runtime, op *Operator, key int64) error {
	type target struct {
		op   *Operator
		sink *SinkStats
		side side
	}
	want := map[target]int{}
	for _, sub := range op.subs {
		if sub.sink != nil {
			want[target{sink: rt.sinks[sub.sink.query]}]++
		} else if dst := rt.ops[sub.op.key]; dst != nil {
			want[target{op: dst, side: sub.side}]++
		}
	}
	real := rt.Sim
	var scratch *des.Sim[delivery]
	scratch = des.New(func(d delivery) {
		want[target{op: d.op, sink: d.sink, side: d.side}]--
		real.Send(scratch.Now()-real.Now(), d)
	})
	scratch.RunUntil(real.Now())
	rt.Sim = scratch
	rt.emit(op, Tuple{Key: key, Size: op.width, Born: real.Now()})
	rt.Sim = real
	scratch.Run()
	for tg, n := range want {
		if n != 0 {
			return fmt.Errorf("%s@%d: emit and the by-key lookup disagree on a target by %d (operator-bound: %v)",
				op.key.sig, op.key.node, n, tg.op != nil)
		}
	}
	return nil
}

// TestEmitFollowsSameKeySuccessor: a consumer is undeployed with tuples
// airborne toward it while its producer — shared with a second query —
// keeps emitting, and is redeployed under the same (sig, node). The
// producer's subscription must reach the new operator and only it; the
// airborne tuples die with the old one, counted; feeding the same route
// again adds nothing; and a migration that rewires the consumer to
// another producer leaves nothing behind on the old one.
func TestEmitFollowsSameKeySuccessor(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	q1, err := query.NewQuery(1, w.q.Sources[:3], 10)
	if err != nil {
		t.Fatal(err)
	}
	w1 := &migrateWorld{g: w.g, cat: w.cat, q: q1, rt: query.BuildRates(w.cat, q1)}
	rt := New(w.g, DefaultConfig(), 23)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	if err := rt.Deploy(w.q, planA, w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	// The second query shares A⋈B at node 5 and joins C elsewhere.
	if err := rt.Deploy(q1, w1.leftDeep([]netgraph.NodeID{5, 8}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(2 * Window)

	producer := rt.Operator(w.q.SigOf(query.Mask(3)), 5)
	key := opKey{sig: w.q.SigOf(query.Mask(7)), node: 6}
	routes := func(p *Operator) (n int) {
		for _, sub := range p.subs {
			if sub.op != nil && sub.op.key == key {
				n++
			}
		}
		return n
	}
	old := rt.ops[key]
	if producer == nil || old == nil || routes(producer) != 1 {
		t.Fatal("A⋈B@5 does not feed A⋈B⋈C@6 exactly once")
	}
	for rt.InFlight() < 12 {
		if !rt.Sim.Step() {
			t.Fatal("queue drained with the sources still running")
		}
	}
	dropped, oldIn, oldOut := rt.TuplesDropped, old.win[0].n+old.win[1].n, old.OutCount
	if err := rt.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	if !old.retired || producer.retired || routes(producer) != 0 {
		t.Fatalf("after undeploy: consumer retired=%v, producer retired=%v, %d routes left", old.retired, producer.retired, routes(producer))
	}
	if err := rt.Deploy(w.q, planA, w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	succ := rt.ops[key]
	if succ == nil || succ == old {
		t.Fatal("redeploy did not create a successor under the same key")
	}
	rt.RunFor(1)
	if got := rt.TuplesDropped - dropped; got < 3 {
		t.Errorf("%d tuples dropped; fewer than 3 were airborne toward the retired operators", got)
	}
	if old.win[0].n+old.win[1].n != oldIn || old.OutCount != oldOut {
		t.Error("the retired operator kept receiving")
	}
	if succ.win[leftSide].n == 0 || succ.win[rightSide].n == 0 {
		t.Errorf("the successor buffered %d+%d tuples in a second", succ.win[leftSide].n, succ.win[rightSide].n)
	}
	if n := routes(producer); n != 1 {
		t.Errorf("the producer holds %d subscriptions to the redeployed key, want 1", n)
	}
	for _, sub := range producer.subs {
		if sub.op != nil && sub.op.key == key && sub.op != succ {
			t.Error("the producer's subscription does not name the successor")
		}
	}

	// Feeding the same route again is a no-op, and moving A⋈B to node 7 for
	// this query alone rewires A⋈B⋈C@6 onto the new instance and must
	// detach it from the old one, which the second query keeps running.
	feed(producer, succ, leftSide)
	if n := routes(producer); n != 1 || len(succ.in) != 2 {
		t.Errorf("feeding a route again left %d subscriptions and %d producers, want 1 and 2", n, len(succ.in))
	}
	if _, err := rt.Migrate(w.q, w.leftDeep([]netgraph.NodeID{7, 6, 7}), w.cat, 1e9); err != nil {
		t.Fatal(err)
	}
	if rt.ops[key] != succ || producer.retired {
		t.Fatal("the migration was meant to keep A⋈B⋈C@6 and the shared A⋈B@5")
	}
	if n := routes(producer); n != 0 {
		t.Errorf("A⋈B@5 still holds %d subscriptions to A⋈B⋈C@6 after it was rewired to A⋈B@7", n)
	}
	if n := routes(rt.Operator(producer.key.sig, 7)); n != 1 {
		t.Errorf("A⋈B@7 holds %d subscriptions to A⋈B⋈C@6, want 1", n)
	}
	rt.RunFor(1)
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}

	for _, id := range []int{w.q.ID, q1.ID} {
		if err := rt.Undeploy(id); err != nil {
			t.Fatal(err)
		}
	}
	rt.Sim.Run()
	if rt.InFlight() != 0 || rt.NumOperators() != 0 {
		t.Errorf("%d tuples in flight and %d operators after both queries left and the queue drained", rt.InFlight(), rt.NumOperators())
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
	rt.RunFor(2 * Window)
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
