package iflow

import (
	"fmt"
	"reflect"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// TestMigrateMatchesOracle holds Migrate, which applies query.DiffIR's
// Keep and Rewire entries, to migrateOracle — Migrate as it was when it
// re-derived the rewired operators from the two IRs itself, verbatim
// below with its rewire loop and the opWidth fallback. Each case deploys
// the same queries on two runtimes and migrates them through a sequence of
// plans, one runtime through Migrate and the other through the oracle.
// After every migration the reports, the operator sets and every
// operator's subscription list must be equal; after the last, so must
// what the two runtimes moved and delivered.
func TestMigrateMatchesOracle(t *testing.T) {
	w := makeMigrateWorld(t, 1)
	// A second, stricter query over the same streams: its plans either
	// compute their own joins or read w.q's root through a residual filter.
	strict, err := query.NewQueryPred(1, w.q.Sources, 15, query.MustPredSet(
		query.Pred{Stream: w.q.Sources[0], Attr: "dep", Range: query.Range{Lo: 0, Hi: 0.25}}))
	if err != nil {
		t.Fatal(err)
	}
	all := strict.All()
	contained := query.Leaf(query.Input{
		Mask: all, Rate: query.BuildRates(w.cat, strict).Rate(all), Loc: 7, Derived: true,
		Sig: strict.SigOf(all), BaseSig: w.q.SigOf(all),
	})
	// A third query sharing w.q's first join at node 5.
	sharer, err := query.NewQuery(2, w.q.Sources, 20)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		q    *query.Query
		plan *query.PlanNode
	}
	cases := []struct {
		name   string
		deploy []step
		steps  []step
	}{
		{"move", []step{{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7})}},
			[]step{{w.q, w.leftDeep([]netgraph.NodeID{5, 8, 7})}, {w.q, w.leftDeep([]netgraph.NodeID{9, 8, 9})}}},
		{"root kept as a leaf", []step{{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7})}},
			[]step{{w.q, query.Leaf(query.Input{Mask: w.q.All(), Rate: w.rt.Rate(w.q.All()), Loc: 7, Derived: true, Sig: w.q.SigOf(w.q.All())})}}},
		{"shared operator", []step{
			{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7})},
			{sharer, leftDeepOf(w.cat, sharer, []netgraph.NodeID{5, 9, 10})}},
			[]step{{w.q, w.leftDeep([]netgraph.NodeID{8, 6, 7})}, {sharer, leftDeepOf(w.cat, sharer, []netgraph.NodeID{5, 6, 10})}}},
		{"containment leaf", []step{
			{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7})},
			{strict, leftDeepOf(w.cat, strict, []netgraph.NodeID{4, 6, 11})}},
			[]step{{strict, contained}, {w.q, w.leftDeep([]netgraph.NodeID{5, 8, 7})}, {strict, leftDeepOf(w.cat, strict, []netgraph.NodeID{5, 8, 11})}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := New(w.g, DefaultConfig(), 3), New(w.g, DefaultConfig(), 3)
			for _, rt := range []*Runtime{got, want} {
				for _, d := range c.deploy {
					if err := rt.Deploy(d.q, d.plan, w.cat, 300); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i, s := range c.steps {
				got.RunFor(20)
				want.RunFor(20)
				gotRep, err := got.Migrate(s.q, s.plan, w.cat, 300)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				wantRep, err := want.migrateOracle(s.q, s.plan, w.cat, 300)
				if err != nil {
					t.Fatalf("step %d: oracle: %v", i, err)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("step %d: report %s, oracle %s", i, gotRep, wantRep)
				}
				if err := sameWiring(got, want); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if err := got.CheckInvariants(nil); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			got.RunFor(30)
			want.RunFor(30)
			if got.Stats() != want.Stats() {
				t.Errorf("runtimes diverged: %+v vs oracle %+v", got.Stats(), want.Stats())
			}
			for _, qid := range got.DeployedQueries() {
				if g, o := *got.Sink(qid), *want.Sink(qid); g != o {
					t.Errorf("query %d sink %+v, oracle %+v", qid, g, o)
				}
			}
		})
	}
}

// route is a subscription's identity across runtimes: its consumer
// operator's key and side, or its sink's query (sink is -1 for an
// operator).
type route struct {
	dst  opKey
	side side
	sink int
}

func routeOf(s subscription) route {
	if s.sink != nil {
		return route{sink: s.sink.query}
	}
	return route{dst: s.op.key, side: s.side, sink: -1}
}

// sameWiring reports the first difference between two runtimes' operator
// sets and subscription lists, compared in order by route.
func sameWiring(a, b *Runtime) error {
	if len(a.ops) != len(b.ops) {
		return fmt.Errorf("%d operators, oracle %d", len(a.ops), len(b.ops))
	}
	for k, op := range a.ops {
		o := b.ops[k]
		if o == nil {
			return fmt.Errorf("operator %s@%d missing from the oracle", k.sig, k.node)
		}
		if op.refs != o.refs || len(op.subs) != len(o.subs) {
			return fmt.Errorf("%s@%d: refs %d subs %v, oracle refs %d subs %v", k.sig, k.node, op.refs, op.subs, o.refs, o.subs)
		}
		for i := range op.subs {
			if g, w := routeOf(op.subs[i]), routeOf(o.subs[i]); g != w {
				return fmt.Errorf("%s@%d: subscription %d is %+v, oracle %+v", k.sig, k.node, i, g, w)
			}
		}
	}
	return nil
}

// migrateOracle is Migrate before it read the diff's Keep and Rewire.
func (rt *Runtime) migrateOracle(q *query.Query, plan *query.PlanNode, cat *query.Catalog, until float64) (MigrationReport, error) {
	sp := rt.spMigrate.Start()
	defer sp.End()
	parent := rt.takeTraceParent()
	var rep MigrationReport
	dep, ok := rt.deploys[q.ID]
	if !ok {
		return rep, fmt.Errorf("iflow: query %d not deployed", q.ID)
	}
	if err := plan.Validate(); err != nil {
		return rep, fmt.Errorf("iflow: query %d: %w", q.ID, err)
	}
	sink := rt.sinks[q.ID]
	if q.Sink != sink.Node {
		return rep, fmt.Errorf("iflow: query %d migration cannot move the sink (%d -> %d)", q.ID, sink.Node, q.Sink)
	}
	rt.refreshPaths()

	// Flatten each plan exactly once: the deployed side's IR is cached on
	// the deployment (built lazily the first time it migrates), the new
	// side's is computed here and becomes the cache after the swap.
	if dep.ir == nil {
		dep.ir = q.IR(dep.plan)
	}
	oldIR, newIR := dep.ir, q.IR(plan)
	diff := query.DiffIR(oldIR, newIR)
	opsBefore := len(rt.ops)

	// Phase 1 — instantiate. The new plan is built while the old one
	// keeps running, so shared-identity operators are reused in place and
	// only changed subtrees allocate anything. This is the only fallible
	// phase: on error the partial build is rolled back and the old
	// deployment is untouched.
	inst, err := rt.instantiate(q, plan, cat, until)
	if err != nil {
		if rt.tr.On() {
			rt.tr.Emit(obs.Event{
				Kind: obs.KindMigrationRolledBack, Parent: parent, Trace: obs.QueryTrace(q.ID),
				Query: q.ID, Node: int(q.Sink), VTime: rt.Sim.Now(), Detail: err.Error(),
			})
		}
		return rep, err
	}

	// Measure the state the diff carried, before anything is retired.
	newSet := make(map[opKey]bool, len(inst.held))
	for _, k := range inst.held {
		newSet[k] = true
	}
	for _, k := range dep.held {
		if !newSet[k] {
			continue
		}
		op := rt.ops[k]
		if op == nil {
			continue
		}
		op.buffered(func(_ side, t Tuple) {
			rep.StateCarried++
			rep.BytesSaved += t.Size
		})
		if op.isAgg && op.aggCount > 0 {
			rep.StateCarried++
			rep.BytesSaved += rt.opWidth(op)
		}
	}

	// Ship moved operators' state. A Move is a create+retire pair sharing
	// a signature: the same logical operator at a new host. Before the old
	// instance is retired, its join windows and aggregation accumulator
	// are copied into the new instance — only when the migration itself
	// created it (a pre-existing shared operator already has its own state
	// and must not be overwritten). The copy crosses real links: each
	// shipped tuple is charged to TotalCost/TotalBytes at the old→new
	// link cost, so migrating under churn pays a measurable price — the
	// term adaptive hysteresis weighs against predicted savings.
	for _, mv := range diff.Move {
		toKey := opKey{sig: mv.Sig, node: mv.To}
		if !inst.created[toKey] {
			continue
		}
		oldOp, newOp := rt.ops[opKey{sig: mv.Sig, node: mv.From}], rt.ops[toKey]
		if oldOp == nil || newOp == nil || newOp.isFilter || oldOp.isFilter {
			continue
		}
		linkCost := rt.Cost.Dist(mv.From, mv.To)
		ship := func(t Tuple) {
			rt.TotalCost += t.Size * linkCost
			rt.TotalBytes += t.Size
			rt.noteSize(t.Size)
			rt.StateTuplesShipped++
			rt.StateBytesShipped += t.Size
			rep.StateShipped++
			rep.BytesShipped += t.Size
			rep.ShipCost += t.Size * linkCost
		}
		oldOp.buffered(func(s side, t Tuple) {
			newOp.win[s].insert(t)
			ship(t)
		})
		if oldOp.isAgg && newOp.isAgg && oldOp.aggCount > 0 {
			newOp.aggCount, newOp.aggBorn, newOp.aggNext = oldOp.aggCount, oldOp.aggBorn, oldOp.aggNext
			ship(Tuple{Size: rt.opWidth(oldOp)})
		}
	}
	rt.obsStateShipped.Add(rep.StateShipped)

	// Phase 2 — rewire. Kept operators whose producer set changed get the
	// new producers subscribed and the stale ones detached. Newly created
	// consumers were wired at instantiation; retired producers lose their
	// remaining subscriptions when collected.
	rep.Rewired = rt.rewireOracle(oldIR, newIR)

	// Phase 3 — swap the sink subscription to the new root, unless the
	// root identity survived (then its existing subscription stands). The
	// SinkStats object is never touched: delivery counters carry over.
	// Post-order IR puts the root last.
	if oldIR[len(oldIR)-1].Ref != newIR[len(newIR)-1].Ref {
		for _, op := range rt.ops {
			op.unsubscribe(subscription{sink: sink})
		}
		inst.root.subscribe(subscription{sink: sink})
	}
	if sink.width != inst.root.width {
		// A new root with a different tuple width: deliveries before this
		// migration used the old width, so the exact per-sink byte
		// invariant no longer applies.
		if sink.Tuples > 0 {
			sink.mixed = true
		}
		sink.width = inst.root.width
	}

	// Phase 4 — retire. The old references are dropped and operators no
	// deployment references and nothing subscribes to are collected,
	// cascading up chains that lost their last subscriber.
	oldHeld := dep.held
	dep.plan, dep.ir, dep.held = plan, newIR, inst.held
	rt.releaseOracle(oldHeld)

	rep.Kept = len(diff.Keep)
	rep.Created = len(inst.created)
	rep.Retired = opsBefore + len(inst.created) - len(rt.ops)
	rep.Moved = len(diff.Move)
	rep.TeardownOps = len(oldHeld) + len(inst.held)

	rt.obsMigrations.Inc()
	rt.obsMigKept.Add(int64(rep.Kept))
	rt.obsMigCreated.Add(int64(rep.Created))
	rt.obsMigRetired.Add(int64(rep.Retired))
	rt.obsMigMoved.Add(int64(rep.Moved))
	rt.obsMigBytesSaved.Add(rep.BytesSaved)
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind: obs.KindMigrationApplied, Parent: parent, Trace: obs.QueryTrace(q.ID),
			Query: q.ID, Node: int(plan.Loc), VTime: rt.Sim.Now(),
			Value: rep.BytesSaved, Aux: rep.BytesShipped, Detail: rep.String(),
		})
	}
	return rep, nil
}

func (rt *Runtime) rewireOracle(oldIR, newIR []query.IROp) int {
	oldByRef := make(map[query.OpRef]query.IROp, len(oldIR))
	for _, op := range oldIR {
		oldByRef[op.Ref] = op
	}
	rewired := 0
	for _, nop := range newIR { // post-order: deterministic wiring order
		oop, kept := oldByRef[nop.Ref]
		if !kept || nop.Leaf || oop.Leaf {
			continue
		}
		ck := opKey{sig: nop.Ref.Sig, node: nop.Ref.Loc}
		changed := false
		for i, in := range nop.Inputs {
			if i < len(oop.Inputs) && oop.Inputs[i] == in {
				continue
			}
			changed = true
			if p := rt.ops[opKey{sig: in.Sig, node: in.Loc}]; p != nil {
				feed(p, rt.ops[ck], side(i))
			}
		}
		for i, in := range oop.Inputs {
			if i < len(nop.Inputs) && nop.Inputs[i] == in {
				continue
			}
			changed = true
			if p := rt.ops[opKey{sig: in.Sig, node: in.Loc}]; p != nil {
				unfeed(p, rt.ops[ck], side(i))
			}
		}
		if changed {
			rewired++
		}
	}
	return rewired
}

// opWidth is the width fallback migrateOracle used before operators
// carried their resolved width.
func (rt *Runtime) opWidth(op *Operator) float64 {
	if op.width > 0 {
		return op.width
	}
	return query.DefaultTupleWidth
}
