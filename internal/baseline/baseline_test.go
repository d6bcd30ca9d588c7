package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

type fixture struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	cat   *query.Catalog
	q     *query.Query
	rt    query.RateTable
}

func makeFixture(seed int64, n, k int) *fixture {
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(n, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	cat := query.NewCatalog(0.01)
	ids := make([]query.StreamID, k)
	for i := range ids {
		ids[i] = cat.Add("s", 1+rng.Float64()*50, netgraph.NodeID(rng.Intn(n)))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			cat.SetSelectivity(ids[i], ids[j], 0.005+rng.Float64()*0.05)
		}
	}
	q, err := query.NewQuery(0, ids, netgraph.NodeID(rng.Intn(n)))
	if err != nil {
		panic(err)
	}
	return &fixture{g, paths, cat, q, query.BuildRates(cat, q)}
}

func TestSelectivityTreeMinimizesIntermediates(t *testing.T) {
	// Three streams where sel(0,1) is tiny: the tree must join 0 and 1
	// first.
	cat := query.NewCatalog(0.5)
	a := cat.Add("A", 100, 0)
	b := cat.Add("B", 100, 1)
	c := cat.Add("C", 100, 2)
	cat.SetSelectivity(a, b, 0.0001)
	q, _ := query.NewQuery(0, []query.StreamID{a, b, c}, 0)
	rt := query.BuildRates(cat, q)
	tree, err := SelectivityTree(core.BaseInputs(cat, q, rt), rt, q.All())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// One child of the root must be the {a,b} join.
	if tree.L.Mask != 0b011 && tree.R.Mask != 0b011 {
		t.Errorf("tree does not join the selective pair first: %s", tree)
	}
}

func TestSelectivityTreeMissingInput(t *testing.T) {
	cat := query.NewCatalog(0.1)
	a := cat.Add("A", 1, 0)
	b := cat.Add("B", 1, 1)
	q, _ := query.NewQuery(0, []query.StreamID{a, b}, 0)
	rt := query.BuildRates(cat, q)
	ins := core.BaseInputs(cat, q, rt)[:1]
	if _, err := SelectivityTree(ins, rt, q.All()); err == nil {
		t.Error("missing base input accepted")
	}
}

// PlaceFixedTree must equal the core DP when the core DP is restricted to
// the same single tree. We verify the weaker but tight property that its
// cost matches the rebuilt plan's cost and never beats the joint optimum.
func TestPlaceFixedTreeConsistency(t *testing.T) {
	check := func(seed int64) bool {
		f := makeFixture(seed, 24, 3)
		tree, err := SelectivityTree(core.BaseInputs(f.cat, f.q, f.rt), f.rt, f.q.All())
		if err != nil {
			return false
		}
		placed, cost, err := PlaceFixedTree(tree, f.q, AllNodes(f.g), f.paths.Dist, f.q.Sink, nil)
		if err != nil {
			return false
		}
		if placed.Validate() != nil {
			return false
		}
		actual := placed.Cost(f.paths.Dist, f.q.Sink)
		if math.Abs(actual-cost) > 1e-6*(1+cost) {
			return false
		}
		opt, err := core.OptimalOpts(f.g, f.paths, f.cat, f.q, nil, core.Options{})
		if err != nil {
			return false
		}
		return cost >= opt.Cost-1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPlaceFixedTreeUsesGoodAd(t *testing.T) {
	f := makeFixture(7, 24, 3)
	tree, err := SelectivityTree(core.BaseInputs(f.cat, f.q, f.rt), f.rt, f.q.All())
	if err != nil {
		t.Fatal(err)
	}
	// Advertise the full query result at the sink itself: reuse is free.
	reg := ads.NewRegistry()
	reg.Advertise(ads.Ad{
		Sig:     f.q.SigOf(f.q.All()),
		Streams: f.q.Sources,
		Node:    f.q.Sink,
		Rate:    f.rt.Rate(f.q.All()),
	})
	placed, cost, err := PlaceFixedTree(tree, f.q, AllNodes(f.g), f.paths.Dist, f.q.Sink, reg)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 1e-9 {
		t.Errorf("cost = %g, want ~0 via reuse at sink", cost)
	}
	if !placed.IsLeaf() || !placed.In.Derived {
		t.Errorf("plan should be a derived leaf, got %s", placed)
	}
}

func TestPlanThenDeployNeverBeatsOptimal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := makeFixture(seed, 32, 4)
		ptd, err := PlanThenDeploy(f.g, f.paths, f.cat, f.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.OptimalOpts(f.g, f.paths, f.cat, f.q, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ptd.Cost < opt.Cost-1e-6 {
			t.Errorf("seed %d: plan-then-deploy %g beats optimal %g", seed, ptd.Cost, opt.Cost)
		}
	}
}

// stress is the average relative error between embedded distances and
// path costs over sampled pairs.
func stress(e *Embedding, paths *netgraph.Paths, samples int, rng *rand.Rand) float64 {
	sum, cnt := 0.0, 0
	for i := 0; i < samples; i++ {
		a, b := rng.Intn(len(e.Pos)), rng.Intn(len(e.Pos))
		if a == b {
			continue
		}
		target := paths.Dist(netgraph.NodeID(a), netgraph.NodeID(b))
		if target <= 0 || math.IsInf(target, 1) {
			continue
		}
		got := Dist3(e.Pos[a], e.Pos[b])
		sum += math.Abs(got-target) / target
		cnt++
	}
	return sum / float64(cnt)
}

func TestEmbeddingQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := netgraph.MustTransitStub(64, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	emb := Embed(g, paths, 48, rng)
	if len(emb.Pos) != 64 {
		t.Fatalf("embedding size %d", len(emb.Pos))
	}
	if s := stress(emb, paths, 500, rng); s > 0.8 {
		t.Errorf("embedding stress %g too high; cost space unusable", s)
	}
	// Nearest of a node's own coordinate is that node (or a co-located one
	// at distance zero).
	v := netgraph.NodeID(10)
	near := emb.Nearest(emb.Pos[v])
	if Dist3(emb.Pos[near], emb.Pos[v]) > 1e-12 {
		t.Errorf("Nearest(%d's pos) = %d at nonzero distance", v, near)
	}
}

func TestEmbedDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := netgraph.New(1)
	paths := g.ShortestPaths(netgraph.MetricCost)
	emb := Embed(g, paths, 4, rng)
	if len(emb.Pos) != 1 {
		t.Fatal("single-node embedding broken")
	}
	empty := Embed(netgraph.New(0), netgraph.New(0).ShortestPaths(netgraph.MetricCost), 4, rng)
	if len(empty.Pos) != 0 {
		t.Fatal("empty embedding broken")
	}
}

func TestRelaxationProducesValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 8; seed++ {
		f := makeFixture(seed, 32, 4)
		emb := Embed(f.g, f.paths, 48, rng)
		res, err := Relaxation(f.g, f.paths, emb, f.cat, f.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Mask != f.q.All() {
			t.Errorf("seed %d: coverage %b", seed, res.Plan.Mask)
		}
		opt, err := core.OptimalOpts(f.g, f.paths, f.cat, f.q, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost < opt.Cost-1e-6 {
			t.Errorf("seed %d: relaxation %g beats optimal %g", seed, res.Cost, opt.Cost)
		}
	}
}

func TestMakeZones(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := netgraph.MustTransitStub(40, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	z, err := MakeZones(g, paths, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Reps) != 5 {
		t.Fatalf("zones = %d", len(z.Reps))
	}
	total := 0
	for _, ms := range z.Members {
		total += len(ms)
	}
	if total != 40 {
		t.Errorf("zone members cover %d nodes", total)
	}
	if _, err := MakeZones(g, paths, 0, rng); err == nil {
		t.Error("nZones=0 accepted")
	}
	if z2, err := MakeZones(g, paths, 100, rng); err != nil || len(z2.Reps) > 40 {
		t.Errorf("nZones>n mishandled: %v", err)
	}
}

func TestInNetworkProducesValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := makeFixture(9, 48, 4)
	z, err := MakeZones(f.g, f.paths, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := InNetwork(f.g, f.paths, z, f.cat, f.q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, err := core.OptimalOpts(f.g, f.paths, f.cat, f.q, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < opt.Cost-1e-6 {
		t.Errorf("in-network %g beats optimal %g", res.Cost, opt.Cost)
	}
}

func TestSelectivityTreeLeftDeepShape(t *testing.T) {
	f := makeFixture(13, 24, 5)
	tree, err := SelectivityTreeLeftDeep(core.BaseInputs(f.cat, f.q, f.rt), f.rt, f.q.All())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every join's right child must be a base leaf.
	for _, op := range tree.Operators() {
		if !op.R.IsLeaf() {
			t.Fatalf("not left-deep: right child covers %b", op.R.Mask)
		}
	}
	// The bushy optimum over intermediate sizes can only be ≤ the
	// left-deep one.
	bushy, err := SelectivityTree(core.BaseInputs(f.cat, f.q, f.rt), f.rt, f.q.All())
	if err != nil {
		t.Fatal(err)
	}
	sum := func(n *query.PlanNode) float64 {
		s := 0.0
		for _, op := range n.Operators() {
			s += op.Rate
		}
		return s
	}
	if sum(bushy) > sum(tree)+1e-9 {
		t.Errorf("bushy intermediates %g exceed left-deep %g", sum(bushy), sum(tree))
	}
	// Missing input detection.
	if _, err := SelectivityTreeLeftDeep(nil, f.rt, f.q.All()); err == nil {
		t.Error("missing inputs accepted")
	}
}
