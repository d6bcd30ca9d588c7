package iflow

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/workload"
)

// TestTeardownMatchesOracle holds the link-following teardown — release,
// Undeploy, Migrate and FailNode collecting through retire — to the
// runtime before links: releaseOracle's fixed point (gc), undeployOracle,
// migrateOracle and failNodeOracle, verbatim below and beside them. Two
// runtimes, one through each, run the chaos harness's world and event mix
// for seeds 1–5 with and without migration (see teardownWorld); after
// every event both must hold the same operators, references,
// subscription lists and retired flags, and must have announced the same
// retirements, and the linked one must pass CheckInvariants.
func TestTeardownMatchesOracle(t *testing.T) {
	const events = 200
	counts := map[string]int{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, migrate := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed %d migrate=%v", seed, migrate), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed ^ 0x5eed5))
				w := newTeardownWorld(t, seed, migrate)
				for i := 0; i < events; i++ {
					w.event(i, rng.Intn)
				}
				w.finish()
				for k, n := range w.counts {
					counts[k] += n
				}
			})
		}
	}
	// Not vacuous: every path ran, and operators that no deployment held
	// stood because something fed from them.
	for _, k := range []string{"undeploy", "migrate", "fail", "retired", "unheld"} {
		if counts[k] == 0 {
			t.Errorf("no %s over the whole run", k)
		}
	}
	t.Logf("%v", counts)
}

// TestCheckInvariantsCatchesBrokenLinks: the audit's "links mirror
// subscriptions" clause reports a producer a consumer does not list, one
// it lists once too often, and one that has retired.
func TestCheckInvariantsCatchesBrokenLinks(t *testing.T) {
	w := makeMigrateWorld(t, 1)
	for _, tc := range []struct {
		name, want string
		breakIt    func(c *Operator)
	}{
		{"unlisted", "1 operator subscriptions missing", func(c *Operator) { c.in = c.in[1:] }},
		{"listed twice", "beyond its subscriptions into it", func(c *Operator) { c.in = append(c.in, c.in[0]) }},
		{"retired", "lists producer gone@3 beyond", func(c *Operator) { c.in = append(c.in, &Operator{key: opKey{sig: "gone", node: 3}}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(w.g, DefaultConfig(), 3)
			if err := rt.Deploy(w.q, w.leftDeep([]netgraph.NodeID{5, 6, 7}), w.cat, 300); err != nil {
				t.Fatal(err)
			}
			if err := rt.CheckInvariants(nil); err != nil {
				t.Fatal(err)
			}
			tc.breakIt(rt.ops[opKey{sig: w.q.SigOf(w.q.All()), node: 7}])
			if err := rt.CheckInvariants(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzTeardown drives the same two runtimes through schedules the fuzzer
// writes: a world seed, then one byte per draw of the event mix.
func FuzzTeardown(f *testing.F) {
	f.Add(int64(1), true, []byte{0, 3, 0, 1, 7, 0, 2, 9, 4, 0, 0, 5, 1, 8, 2, 2, 6})
	f.Add(int64(3), false, []byte{0, 0, 0, 0, 6, 6, 1, 9, 3, 3, 0, 0, 7, 2})
	f.Fuzz(func(t *testing.T, seed int64, migrate bool, draws []byte) {
		if len(draws) > 512 {
			draws = draws[:512]
		}
		w := newTeardownWorld(t, 1+seed&3, migrate)
		next := func(n int) int {
			if len(draws) == 0 {
				return 0
			}
			b := draws[0]
			draws = draws[1:]
			return int(b) % n
		}
		for i := 0; len(draws) > 0; i++ {
			w.event(i, next)
		}
		w.finish()
	})
}

// The chaos harness's world (chaos imports this package, so it is rebuilt
// here from the same seeds): a 24-node transit-stub network under a
// cluster cap of 6, 8 streams, a pool of 10 queries with every third
// narrowed by a nested range, planned by Top-Down or Bottom-Up against an
// advertisement registry the runtimes' retirements retract — so later
// arrivals reuse running operators, through residual filters too.
const (
	tdNodes   = 24
	tdMaxCS   = 6
	tdStreams = 8
	tdQueries = 10
)

type teardownWorld struct {
	t         testing.TB
	migrate   bool
	h         *hierarchy.Hierarchy
	cat       *query.Catalog
	pool      []*query.Query
	reg       *ads.Registry
	got, want *Runtime

	// Per runtime: the retirements announced during the current event,
	// and every operator seen so far in the order first seen.
	calls [2][]opKey
	seen  [2]map[*Operator]bool
	hist  [2][]*Operator

	// counts tallies events by kind, announced retirements ("retired"),
	// and events after which a running operator was unheld ("unheld").
	counts map[string]int
}

func newTeardownWorld(tb testing.TB, seed int64, migrate bool) *teardownWorld {
	tb.Helper()
	buildRng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(tdNodes, buildRng)
	h, err := hierarchy.Build(g, g.ShortestPaths(netgraph.MetricCost), tdMaxCS, buildRng)
	if err != nil {
		tb.Fatal(err)
	}
	wlRng := rand.New(rand.NewSource(seed ^ 0x77f00d))
	wl, err := workload.Generate(workload.Default(tdStreams, tdQueries), tdNodes, wlRng)
	if err != nil {
		tb.Fatal(err)
	}
	w := &teardownWorld{t: tb, migrate: migrate, h: h, cat: wl.Catalog, reg: ads.NewRegistry(), counts: map[string]int{}}
	ranges := []query.Range{{Lo: 0, Hi: 0.9}, {Lo: 0.05, Hi: 0.65}, {Lo: 0.1, Hi: 0.5}}
	for i, q := range wl.Queries {
		if i%3 == 1 {
			r := ranges[wlRng.Intn(len(ranges))]
			if q, err = query.NewQueryPred(q.ID, q.Sources, q.Sink,
				query.MustPredSet(query.Pred{Stream: q.Sources[0], Attr: "a", Range: r})); err != nil {
				tb.Fatal(err)
			}
		}
		w.pool = append(w.pool, q)
	}
	w.got, w.want = New(g, DefaultConfig(), seed), New(g, DefaultConfig(), seed)
	for i, rt := range []*Runtime{w.got, w.want} {
		w.seen[i] = map[*Operator]bool{}
		rt.OnRetire = func(sig string, node netgraph.NodeID) {
			w.calls[i] = append(w.calls[i], opKey{sig: sig, node: node})
			if rt == w.got {
				w.reg.Retract(sig, node)
				w.counts["retired"]++
			}
		}
	}
	return w
}

// plannable lists the pool queries that are idle (or deployed) and whose
// sink and sources are live, in pool order.
func (w *teardownWorld) plannable(deployed bool) []*query.Query {
	var out []*query.Query
	for _, q := range w.pool {
		if (w.got.DeployedPlan(q.ID) != nil) == deployed && w.alive(q) {
			out = append(out, q)
		}
	}
	return out
}

func (w *teardownWorld) alive(q *query.Query) bool {
	if !w.h.Contains(q.Sink) {
		return false
	}
	for _, sid := range q.Sources {
		if !w.h.Contains(w.cat.Stream(sid).Source) {
			return false
		}
	}
	return true
}

func (w *teardownWorld) plan(q *query.Query, pick func(int) int) (*query.PlanNode, error) {
	plan := core.TopDownOpts
	if pick(2) == 0 {
		plan = core.BottomUpOpts
	}
	res, err := plan(w.h, w.cat, q, w.reg, core.Options{})
	return res.Plan, err
}

// event draws one entry of the chaos mix (arrive 4, undeploy 1, migrate
// 3, fail 2, recover 2, idle 1) and applies it to both runtimes, then
// advances both clocks and compares them.
func (w *teardownWorld) event(i int, pick func(int) int) {
	w.t.Helper()
	arrivals, deployed := w.plannable(false), w.got.DeployedQueries()
	migratable := w.plannable(true)
	var live, dead []netgraph.NodeID
	for v := netgraph.NodeID(0); v < tdNodes; v++ {
		if w.h.Contains(v) {
			live = append(live, v)
		} else {
			dead = append(dead, v)
		}
	}
	var kinds []string // each kind once per unit of weight
	for _, k := range []struct {
		what   string
		weight int
		ok     bool
	}{
		{"arrive", 4, len(arrivals) > 0},
		{"undeploy", 1, len(deployed) > 0},
		{"migrate", 3, w.migrate && len(migratable) > 0},
		{"fail", 2, len(live) > max(tdMaxCS, tdNodes/2)},
		{"recover", 2, len(dead) > 0},
		{"idle", 1, true},
	} {
		for i := 0; k.ok && i < k.weight; i++ {
			kinds = append(kinds, k.what)
		}
	}
	what := kinds[pick(len(kinds))]
	w.calls = [2][]opKey{}
	w.counts[what]++
	step := fmt.Sprintf("event %d (%s)", i, what)
	switch what {
	case "arrive":
		q := arrivals[pick(len(arrivals))]
		plan, err := w.plan(q, pick)
		if err != nil {
			w.t.Fatalf("%s: plan query %d: %v", step, q.ID, err)
		}
		w.deploy(step, q, plan)
	case "undeploy":
		qid := deployed[pick(len(deployed))]
		w.undeploy(step, qid)
	case "migrate":
		q := migratable[pick(len(migratable))]
		plan, err := w.plan(q, pick)
		if err != nil {
			w.t.Fatalf("%s: plan query %d: %v", step, q.ID, err)
		}
		gotRep, err := w.got.Migrate(q, plan, w.cat, 1e9)
		if err != nil {
			w.t.Fatalf("%s: %v", step, err)
		}
		wantRep, err := w.want.migrateOracle(q, plan, w.cat, 1e9)
		if err != nil {
			w.t.Fatalf("%s: oracle: %v", step, err)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			w.t.Fatalf("%s: report %s, oracle %s", step, gotRep, wantRep)
		}
		w.reg.AdvertisePlan(q, plan)
	case "fail":
		v := live[pick(len(live))]
		// failNodeOracle predates OnRetire: announce its crashed operators
		// as FailNode's retire does.
		for k := range w.want.ops {
			if k.node == v {
				w.want.OnRetire(k.sig, k.node)
			}
		}
		affected, wantAffected := w.got.FailNode(v), w.want.failNodeOracle(v)
		if !slices.Equal(affected, wantAffected) {
			w.t.Fatalf("%s: affected %v, oracle %v", step, affected, wantAffected)
		}
		if err := w.h.RemoveNode(v); err != nil {
			w.t.Fatalf("%s: %v", step, err)
		}
		for _, qid := range affected {
			q := w.got.DeployedQuery(qid)
			w.undeploy(step, qid)
			if !w.alive(q) {
				continue
			}
			if plan, err := w.plan(q, pick); err == nil {
				w.deploy(step, q, plan)
			}
		}
	case "recover":
		if err := w.h.AddNode(dead[pick(len(dead))]); err != nil {
			w.t.Fatalf("%s: %v", step, err)
		}
	}
	w.compare(step)
	dt := float64(pick(8)) * 0.1
	w.got.RunFor(dt)
	w.want.RunFor(dt)
}

func (w *teardownWorld) deploy(step string, q *query.Query, plan *query.PlanNode) {
	w.t.Helper()
	for _, rt := range []*Runtime{w.got, w.want} {
		if err := rt.Deploy(q, plan, w.cat, 1e9); err != nil {
			w.t.Fatalf("%s: deploy query %d: %v", step, q.ID, err)
		}
	}
	w.reg.AdvertisePlan(q, plan)
}

func (w *teardownWorld) undeploy(step string, qid int) {
	w.t.Helper()
	if err := w.got.Undeploy(qid); err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
	if err := w.want.undeployOracle(qid); err != nil {
		w.t.Fatalf("%s: oracle: %v", step, err)
	}
}

// compare holds the two runtimes equal after one event.
func (w *teardownWorld) compare(step string) {
	w.t.Helper()
	if err := sameWiring(w.got, w.want); err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
	for i := range w.calls {
		slices.SortFunc(w.calls[i], cmpKey)
	}
	if !slices.Equal(w.calls[0], w.calls[1]) {
		w.t.Fatalf("%s: retirements announced %v, oracle %v", step, w.calls[0], w.calls[1])
	}
	for i, rt := range []*Runtime{w.got, w.want} {
		var fresh []*Operator
		for _, op := range rt.ops {
			if !w.seen[i][op] {
				w.seen[i][op] = true
				fresh = append(fresh, op)
			}
		}
		slices.SortFunc(fresh, func(a, b *Operator) int { return cmpKey(a.key, b.key) })
		w.hist[i] = append(w.hist[i], fresh...)
	}
	for j, op := range w.hist[0] {
		if o := w.hist[1][j]; op.key != o.key || op.retired != o.retired {
			w.t.Fatalf("%s: operator %d seen is %s@%d retired=%v, oracle %s@%d retired=%v",
				step, j, op.key.sig, op.key.node, op.retired, o.key.sig, o.key.node, o.retired)
		}
	}
	if err := w.got.CheckInvariants(w.h.Contains); err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
	for _, op := range w.got.ops {
		if op.refs == 0 {
			w.counts["unheld"]++
			break
		}
	}
}

// finish runs both runtimes on and compares what they moved and delivered.
func (w *teardownWorld) finish() {
	w.t.Helper()
	w.got.RunFor(5)
	w.want.RunFor(5)
	if w.got.Stats() != w.want.Stats() {
		w.t.Fatalf("runtimes diverged: %+v vs oracle %+v", w.got.Stats(), w.want.Stats())
	}
	for _, qid := range w.got.DeployedQueries() {
		if g, o := *w.got.Sink(qid), *w.want.Sink(qid); g != o {
			w.t.Fatalf("query %d sink %+v, oracle %+v", qid, g, o)
		}
	}
}

func cmpKey(a, b opKey) int {
	if c := strings.Compare(a.sig, b.sig); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// undeployOracle is Undeploy before links: it releases through
// releaseOracle.
func (rt *Runtime) undeployOracle(queryID int) error {
	parent := rt.takeTraceParent()
	dep, ok := rt.deploys[queryID]
	if !ok {
		return fmt.Errorf("iflow: query %d not deployed", queryID)
	}
	rt.unsubscribeSink(queryID, dep.held)
	delete(rt.deploys, queryID)
	rt.releaseOracle(dep.held)
	if rt.tr.On() {
		rt.tr.Emit(obs.Event{
			Kind: obs.KindQueryUndeployed, Parent: parent, Trace: obs.QueryTrace(queryID),
			Query: queryID, Node: int(rt.sinks[queryID].Node), VTime: rt.Sim.Now(),
		})
	}
	return nil
}

// releaseOracle is release before links: drop the references, then sweep
// the whole runtime with gc.
func (rt *Runtime) releaseOracle(held []opKey) {
	for _, k := range held {
		if op := rt.ops[k]; op != nil {
			op.refs--
		}
	}
	rt.gc()
}

// retireOracle is retire before links: it leaves every edge in place.
func (rt *Runtime) retireOracle(op *Operator) {
	op.retired = true
	delete(rt.ops, op.key)
	if rt.OnRetire != nil {
		rt.OnRetire(op.key.sig, op.key.node)
	}
}

// gc garbage-collects unreferenced operators (iterating to a fixed point
// so chains collapse; subscriptions into removed operators are dropped
// eagerly here, and lazily by emit for tuples already in flight).
func (rt *Runtime) gc() {
	for changed := true; changed; {
		changed = false
		for _, op := range rt.ops {
			if op.refs <= 0 && len(op.subs) == 0 {
				rt.retireOracle(op)
				changed = true
			}
		}
		// Drop subscriptions pointing at removed operators.
		for _, op := range rt.ops {
			kept := op.subs[:0]
			for _, s := range op.subs {
				if s.sink != nil || rt.ops[s.op.key] != nil {
					kept = append(kept, s)
				}
			}
			if len(kept) != len(op.subs) {
				op.subs = kept
				changed = true
			}
		}
	}
}
