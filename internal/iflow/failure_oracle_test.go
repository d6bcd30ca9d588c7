package iflow

import (
	"slices"
	"sort"
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// TestFailNodeMatchesOracle holds FailNode, which retires the crashed
// operators through retire and lets their links collect what they fed on,
// to failNodeOracle — FailNode as it was with its own dead set and
// subscription sweep, verbatim below. Each case deploys (and migrates)
// TestMigrateMatchesOracle's fixtures, or a query whose whole plan is one
// reused derived leaf; then every node that hosts an operator or a sink
// is failed in turn on two fresh copies, one through each. The affected
// lists, the operator sets, every subscription list and, after more
// simulated time, the runtimes' statistics must be equal.
func TestFailNodeMatchesOracle(t *testing.T) {
	w := makeMigrateWorld(t, 1)
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
	sharer, err := query.NewQuery(2, w.q.Sources, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A fourth query that reads w.q's root where it runs: its deployment
	// holds one key, and its root is another query's.
	reader, err := query.NewQuery(3, w.q.Sources, 22)
	if err != nil {
		t.Fatal(err)
	}
	rootLeaf := query.Leaf(query.Input{Mask: w.q.All(), Rate: w.rt.Rate(w.q.All()), Loc: 7, Derived: true, Sig: w.q.SigOf(w.q.All())})
	type step struct {
		q       *query.Query
		plan    *query.PlanNode
		migrate bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"move", []step{{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), false}, {w.q, w.leftDeep([]netgraph.NodeID{5, 8, 7}), true}}},
		{"shared operator", []step{
			{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), false},
			{sharer, leftDeepOf(w.cat, sharer, []netgraph.NodeID{5, 9, 10}), false}}},
		{"containment leaf", []step{
			{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), false},
			{strict, leftDeepOf(w.cat, strict, []netgraph.NodeID{4, 6, 11}), false},
			{strict, contained, true}}},
		{"reused derived leaf", []step{{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), false}, {reader, rootLeaf, false}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() *Runtime {
				rt := New(w.g, DefaultConfig(), 3)
				for i, s := range c.steps {
					var err error
					if s.migrate {
						_, err = rt.Migrate(s.q, s.plan, w.cat, 300)
					} else {
						err = rt.Deploy(s.q, s.plan, w.cat, 300)
					}
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					rt.RunFor(10)
				}
				return rt
			}
			var nodes []netgraph.NodeID
			rt := build()
			for k := range rt.ops {
				nodes = append(nodes, k.node)
			}
			for _, qid := range rt.DeployedQueries() {
				nodes = append(nodes, rt.Sink(qid).Node)
			}
			slices.Sort(nodes)
			for _, v := range slices.Compact(nodes) {
				got, want := build(), build()
				gotIDs, wantIDs := got.FailNode(v), want.failNodeOracle(v)
				if !slices.Equal(gotIDs, wantIDs) {
					t.Fatalf("fail %d: affected %v, oracle %v", v, gotIDs, wantIDs)
				}
				if err := sameWiring(got, want); err != nil {
					t.Fatalf("fail %d: %v", v, err)
				}
				got.RunFor(20)
				want.RunFor(20)
				if got.Stats() != want.Stats() {
					t.Fatalf("fail %d: runtimes diverged: %+v vs oracle %+v", v, got.Stats(), want.Stats())
				}
			}
		})
	}

	// Undeploying the reader detaches its sink from the root it shares
	// and nothing else: the producer's own sink subscription stays.
	rt := New(w.g, DefaultConfig(), 3)
	for _, d := range []struct {
		q    *query.Query
		plan *query.PlanNode
	}{{w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7})}, {reader, rootLeaf}} {
		if err := rt.Deploy(d.q, d.plan, w.cat, 300); err != nil {
			t.Fatal(err)
		}
	}
	root := rt.ops[opKey{sig: w.q.SigOf(w.q.All()), node: 7}]
	if len(root.subs) != 2 {
		t.Fatalf("shared root subscriptions %+v, want both sinks", root.subs)
	}
	if err := rt.Undeploy(reader.ID); err != nil {
		t.Fatal(err)
	}
	if len(root.subs) != 1 || root.subs[0] != (subscription{sink: rt.Sink(w.q.ID)}) {
		t.Fatalf("after undeploying the reader the root's subscriptions are %+v, want only query %d's sink", root.subs, w.q.ID)
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// failNodeOracle is FailNode before operators retired in one place: it
// keeps its own dead set and drops the subscriptions into it itself.
func (rt *Runtime) failNodeOracle(v netgraph.NodeID) []int {
	dead := map[opKey]bool{}
	for k, op := range rt.ops {
		if k.node == v {
			dead[k] = true
			op.retired = true
			delete(rt.ops, k)
		}
	}
	affected := map[int]bool{}
	for qid := range rt.deploys {
		if s := rt.sinks[qid]; s != nil && s.Node == v {
			affected[qid] = true
		}
	}
	if len(dead) == 0 && len(affected) == 0 {
		return nil
	}
	// Drop subscriptions into dead operators, then collect chains the
	// crash orphaned: an operator kept alive only by a subscriber on the
	// failed node (refs == 0 — e.g. the upstream chain of a reused stream
	// whose producing query was already undeployed) has no references and,
	// now, no subscribers, and must not outlive its consumer.
	for _, op := range rt.ops {
		kept := op.subs[:0]
		for _, s := range op.subs {
			if s.sink == nil && dead[s.op.key] {
				continue
			}
			kept = append(kept, s)
		}
		op.subs = kept
	}
	rt.gc()
	for qid, dep := range rt.deploys {
		for _, k := range dep.held {
			if dead[k] {
				affected[qid] = true
			}
		}
	}
	out := make([]int, 0, len(affected))
	for qid := range affected {
		out = append(out, qid)
	}
	sort.Ints(out)
	return out
}
