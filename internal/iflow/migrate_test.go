package iflow

import (
	"math/rand"
	"testing"

	"hnp/internal/ads"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// migrateWorld builds a 4-stream catalog/query over the 32-node test
// topology and a helper assembling left-deep plans with explicit join
// placements, so migrations between placements can be exercised directly.
type migrateWorld struct {
	g   *netgraph.Graph
	cat *query.Catalog
	q   *query.Query
	rt  query.RateTable
}

func makeMigrateWorld(t *testing.T, seed int64) *migrateWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(32, rng)
	cat := query.NewCatalog(0.05)
	a := cat.Add("A", 20, 4)
	b := cat.Add("B", 15, 20)
	c := cat.Add("C", 10, 28)
	d := cat.Add("D", 8, 12)
	q, err := query.NewQuery(0, []query.StreamID{a, b, c, d}, 9)
	if err != nil {
		t.Fatal(err)
	}
	return &migrateWorld{g: g, cat: cat, q: q, rt: query.BuildRates(cat, q)}
}

// leftDeep places the K-1 joins of a left-deep tree at the given nodes.
func (w *migrateWorld) leftDeep(joinLocs []netgraph.NodeID) *query.PlanNode {
	return leftDeepOf(w.cat, w.q, joinLocs)
}

// leftDeepOf places the K-1 joins of a left-deep plan of q at the given
// nodes, its leaves at their streams' sources.
func leftDeepOf(cat *query.Catalog, q *query.Query, joinLocs []netgraph.NodeID) *query.PlanNode {
	rt := query.BuildRates(cat, q)
	leaf := func(pos int) *query.PlanNode {
		m := query.Mask(1 << uint(pos))
		return query.Leaf(query.Input{
			Mask: m,
			Rate: rt.Rate(m),
			Loc:  cat.Stream(q.Sources[pos]).Source,
			Sig:  q.SigOf(m),
		})
	}
	cur := leaf(0)
	for i := 1; i < q.K(); i++ {
		cur = query.Join(cur, leaf(i), joinLocs[i-1], rt.Rate(cur.Mask|query.Mask(1<<uint(i))))
	}
	return cur
}

// A single placement change in a K=4 plan must migrate as a strict delta:
// one create, one retire, everything else kept running in place — strictly
// cheaper than the teardown path, measured against an actual
// teardown-redeploy of the same plans on a second runtime.
func TestMigrateSinglePlacementDelta(t *testing.T) {
	w := makeMigrateWorld(t, 1)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	planB := w.leftDeep([]netgraph.NodeID{5, 8, 7}) // middle join moves 6 -> 8

	rt := New(w.g, DefaultConfig(), 42)
	if err := rt.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(50)

	sinkBefore := rt.Sink(w.q.ID)
	tuplesBefore := sinkBefore.Tuples
	if tuplesBefore == 0 {
		t.Fatal("no tuples delivered before migration")
	}
	keptSig := w.q.SigOf(query.Mask(3)) // A⋈B at node 5, kept by the diff
	keptOp := rt.Operator(keptSig, 5)
	if keptOp == nil {
		t.Fatal("first join not deployed")
	}
	keptOut := keptOp.OutCount

	rep, err := rt.Migrate(w.q, planB, w.cat, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Created != 1 || rep.Retired != 1 || rep.Moved != 1 || rep.Rewired != 1 {
		t.Errorf("report %s: want created=1 retired=1 moved=1 rewired=1", rep)
	}
	if want := 2*w.q.K() - 2; rep.Kept != want {
		t.Errorf("kept=%d, want %d", rep.Kept, want)
	}
	if rep.Delta() >= rep.TeardownOps {
		t.Errorf("delta %d not cheaper than teardown bound %d", rep.Delta(), rep.TeardownOps)
	}
	if rep.StateCarried == 0 || rep.BytesSaved <= 0 {
		t.Errorf("no state carried: %s", rep)
	}

	// Kept operators are the same running instances, statistics intact.
	if now := rt.Operator(keptSig, 5); now != keptOp {
		t.Error("kept operator was recreated")
	}
	if keptOp.OutCount < keptOut {
		t.Error("kept operator lost its output statistics")
	}
	// The sink statistics object carries natively: same instance, counters
	// monotone across the migration.
	if rt.Sink(w.q.ID) != sinkBefore {
		t.Error("migration replaced the sink statistics object")
	}
	if sinkBefore.Tuples < tuplesBefore {
		t.Error("sink counters reset by migration")
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants after migration: %v", err)
	}
	rt.RunFor(50)
	if sinkBefore.Tuples <= tuplesBefore {
		t.Error("query starved after migration")
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants after post-migration run: %v", err)
	}

	// The same plan change via teardown-redeploy churns strictly more
	// operators: every old operator down, every new operator up.
	rt2 := New(w.g, DefaultConfig(), 42)
	if err := rt2.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	torn := rt2.NumOperators()
	if err := rt2.Undeploy(w.q.ID); err != nil {
		t.Fatal(err)
	}
	torn -= rt2.NumOperators() // operators actually removed
	if err := rt2.Deploy(w.q, planB, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	teardownChurn := torn + rt2.NumOperators()
	if rep.Delta() >= teardownChurn {
		t.Errorf("migration churned %d ops, teardown-redeploy %d — no delta win", rep.Delta(), teardownChurn)
	}
}

// A migration whose new plan cannot be instantiated must leave the old
// deployment exactly as it was: same plan, same operators, still flowing.
func TestMigrateRollsBackOnError(t *testing.T) {
	w := makeMigrateWorld(t, 2)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	rt := New(w.g, DefaultConfig(), 7)
	if err := rt.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20)
	opsBefore := rt.NumOperators()
	tuplesBefore := rt.Sink(w.q.ID).Tuples

	// Valid shape, impossible instantiation: the derived leaf reuses a
	// stream nobody computes. The base-A tap is instantiated (reused)
	// before the failure, so rollback has real work to undo.
	rest := w.q.All() &^ query.Mask(1)
	bad := query.Join(
		query.Leaf(query.Input{Mask: 1, Rate: w.rt.Rate(1), Loc: 4, Sig: w.q.SigOf(1)}),
		query.Leaf(query.Input{Mask: rest, Rate: w.rt.Rate(rest), Loc: 3, Derived: true, Sig: w.q.SigOf(rest)}),
		7, w.rt.Rate(w.q.All()),
	)
	if _, err := rt.Migrate(w.q, bad, w.cat, 200); err == nil {
		t.Fatal("migration to an uninstantiable plan accepted")
	}
	if _, err := rt.Migrate(w.q, nil, w.cat, 200); err == nil {
		t.Fatal("migration to a nil plan accepted")
	}
	if rt.NumOperators() != opsBefore {
		t.Errorf("failed migration changed operator count: %d -> %d", opsBefore, rt.NumOperators())
	}
	if rt.DeployedPlan(w.q.ID) != planA {
		t.Error("failed migration replaced the recorded plan")
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants after failed migration: %v", err)
	}
	rt.RunFor(20)
	if rt.Sink(w.q.ID).Tuples <= tuplesBefore {
		t.Error("old deployment stopped flowing after failed migration")
	}
}

// Migrating to a plan that consumes the query's own old root as a derived
// leaf must keep that root (and, transitively, its upstream chain via
// subscriptions) without rewiring its inputs away.
func TestMigrateToLeafConsumption(t *testing.T) {
	w := makeMigrateWorld(t, 3)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	rt := New(w.g, DefaultConfig(), 11)
	if err := rt.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20)
	full := w.q.All()
	leafPlan := query.Leaf(query.Input{
		Mask: full, Rate: w.rt.Rate(full), Loc: 7, Derived: true, Sig: w.q.SigOf(full),
	})
	rep, err := rt.Migrate(w.q, leafPlan, w.cat, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 1 || rep.Created != 0 {
		t.Errorf("report %s: want kept=1 created=0", rep)
	}
	// The root's upstream chain survives — it feeds the root through
	// subscriptions even though no deployment references it anymore.
	if rt.Operator(w.q.SigOf(query.Mask(3)), 5) == nil {
		t.Error("upstream of the consumed root was collected")
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	before := rt.Sink(w.q.ID).Tuples
	rt.RunFor(30)
	if rt.Sink(w.q.ID).Tuples <= before {
		t.Error("query starved after migrating to leaf consumption")
	}
}

// A moved operator's window state must ship to its new host: the new
// instance resumes with the old windows, and the shipped bytes are
// charged to the transport totals (migration is not free).
func TestMigrateShipsMovedState(t *testing.T) {
	w := makeMigrateWorld(t, 6)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	planB := w.leftDeep([]netgraph.NodeID{5, 8, 7}) // middle join moves 6 -> 8
	rt := New(w.g, DefaultConfig(), 23)
	if err := rt.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(50)

	movedSig := w.q.SigOf(query.Mask(7)) // A⋈B⋈C
	oldOp := rt.Operator(movedSig, 6)
	if oldOp == nil {
		t.Fatal("moved join not deployed")
	}
	buffered := oldOp.win[leftSide].n + oldOp.win[rightSide].n
	if buffered == 0 {
		t.Fatal("moved join has no window state to ship")
	}
	costBefore, bytesBefore := rt.TotalCost, rt.TotalBytes

	rep, err := rt.Migrate(w.q, planB, w.cat, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateShipped != int64(buffered) {
		t.Errorf("shipped %d tuples, moved op buffered %d", rep.StateShipped, buffered)
	}
	if want := query.DefaultTupleWidth * float64(rep.StateShipped); rep.BytesShipped != want {
		t.Errorf("shipped bytes %g, want %g", rep.BytesShipped, want)
	}
	if rep.ShipCost <= 0 {
		t.Error("shipping state across 6 -> 8 cost nothing")
	}
	if !approxEq(rt.TotalCost, costBefore+rep.ShipCost) {
		t.Errorf("TotalCost %g, want %g", rt.TotalCost, costBefore+rep.ShipCost)
	}
	if !approxEq(rt.TotalBytes, bytesBefore+rep.BytesShipped) {
		t.Errorf("TotalBytes %g, want %g", rt.TotalBytes, bytesBefore+rep.BytesShipped)
	}
	if rt.StateTuplesShipped != rep.StateShipped {
		t.Errorf("runtime shipped counter %d, report %d", rt.StateTuplesShipped, rep.StateShipped)
	}
	newOp := rt.Operator(movedSig, 8)
	if newOp == nil {
		t.Fatal("moved join missing at new host")
	}
	if got := newOp.win[leftSide].n + newOp.win[rightSide].n; got != buffered {
		t.Errorf("new host holds %d window tuples, old held %d", got, buffered)
	}
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants after shipping migration: %v", err)
	}
	rt.RunFor(30)
	if err := rt.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants after post-migration run: %v", err)
	}
}

func TestResidualPassProbEdges(t *testing.T) {
	cases := []struct {
		narrowed, base, want float64
	}{
		{5, 0, 1},    // uncalibrated base: cannot narrow, pass everything
		{5, -2, 1},   // negative base ditto
		{10, 5, 1},   // "narrowed" above base: clamp to pass-through
		{5, 5, 1},    // equal rates: pass-through
		{0, 10, 0},   // nothing passes
		{-1, 10, 0},  // negative narrowed rate passes nothing
		{2, 10, 0.2}, // ordinary ratio
	}
	for _, c := range cases {
		if got := ResidualPassProb(c.narrowed, c.base); got != c.want {
			t.Errorf("ResidualPassProb(%g, %g) = %g, want %g", c.narrowed, c.base, got, c.want)
		}
	}
}

// Pruning the advertisement registry against the post-migration runtime
// must retract exactly the ads of retired operators: an ad whose operator
// the migration kept survives, one whose operator moved away is gone.
func TestPruneAcrossMigration(t *testing.T) {
	w := makeMigrateWorld(t, 5)
	planA := w.leftDeep([]netgraph.NodeID{5, 6, 7})
	planB := w.leftDeep([]netgraph.NodeID{5, 8, 7})
	rt := New(w.g, DefaultConfig(), 17)
	if err := rt.Deploy(w.q, planA, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	reg := ads.NewRegistry()
	reg.AdvertisePlan(w.q, planA)

	if _, err := rt.Migrate(w.q, planB, w.cat, 200); err != nil {
		t.Fatal(err)
	}
	reg.AdvertisePlan(w.q, planB)
	reg.Prune(func(ad ads.Ad) bool { return rt.Operator(ad.Sig, ad.Node) != nil })

	midSig := w.q.SigOf(query.Mask(7)) // A⋈B⋈C — the moved join
	nodes := map[netgraph.NodeID]bool{}
	for _, ad := range reg.Lookup(midSig) {
		nodes[ad.Node] = true
	}
	if nodes[6] {
		t.Error("ad for the retired operator at node 6 survived the prune")
	}
	if !nodes[8] {
		t.Error("ad for the migrated operator at node 8 was pruned")
	}
	keptSig := w.q.SigOf(query.Mask(3)) // A⋈B at 5, kept by the migration
	found := false
	for _, ad := range reg.Lookup(keptSig) {
		if ad.Node == 5 {
			found = true
		}
	}
	if !found {
		t.Error("ad for a kept operator was retracted")
	}
}
