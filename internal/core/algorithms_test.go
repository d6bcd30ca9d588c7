package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hnp/internal/ads"
	costpkg "hnp/internal/cost"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// world bundles a network, hierarchy, catalog and random queries.
type world struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	h     *hierarchy.Hierarchy
	cat   *query.Catalog
	qs    []*query.Query
}

func makeWorld(t testing.TB, seed int64, n, maxCS, nStreams, nQueries int) *world {
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(n, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, maxCS, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog(0.01)
	ids := make([]query.StreamID, nStreams)
	for i := range ids {
		ids[i] = cat.Add("s", 1+rng.Float64()*99, netgraph.NodeID(rng.Intn(n)))
	}
	for i := 0; i < nStreams; i++ {
		for j := i + 1; j < nStreams; j++ {
			cat.SetSelectivity(ids[i], ids[j], 0.001+rng.Float64()*0.02)
		}
	}
	var qs []*query.Query
	for qi := 0; qi < nQueries; qi++ {
		k := 3 + rng.Intn(3) // 2-5 joins per query
		perm := rng.Perm(nStreams)
		srcs := make([]query.StreamID, k)
		for i := 0; i < k; i++ {
			srcs[i] = ids[perm[i]]
		}
		q, err := query.NewQuery(qi, srcs, netgraph.NodeID(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return &world{g: g, paths: paths, h: h, cat: cat, qs: qs}
}

func TestTopDownProducesValidPlans(t *testing.T) {
	w := makeWorld(t, 1, 64, 8, 20, 15)
	for _, q := range w.qs {
		res, err := TopDown(w.h, w.cat, q, nil)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if res.Plan.Mask != q.All() {
			t.Errorf("query %d: plan covers %b, want %b", q.ID, res.Plan.Mask, q.All())
		}
		if res.Cost <= 0 {
			t.Errorf("query %d: cost %g", q.ID, res.Cost)
		}
		if math.Abs(res.Cost-res.Plan.Cost(w.paths.Dist, q.Sink)) > 1e-6*res.Cost {
			t.Errorf("query %d: reported cost %g != plan cost", q.ID, res.Cost)
		}
		// All operators must be placed on real nodes.
		for _, op := range res.Plan.Operators() {
			if int(op.Loc) < 0 || int(op.Loc) >= w.g.NumNodes() {
				t.Errorf("query %d: operator at invalid node %d", q.ID, op.Loc)
			}
		}
		if res.LevelsVisited != w.h.Height() {
			t.Errorf("LevelsVisited = %d, want %d", res.LevelsVisited, w.h.Height())
		}
	}
}

func TestBottomUpProducesValidPlans(t *testing.T) {
	w := makeWorld(t, 2, 64, 8, 20, 15)
	for _, q := range w.qs {
		res, err := BottomUpOpts(w.h, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if res.Plan.Mask != q.All() {
			t.Errorf("query %d: plan covers %b", q.ID, res.Plan.Mask)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("query %d: %v", q.ID, err)
		}
		if math.Abs(res.Cost-res.Plan.Cost(w.paths.Dist, q.Sink)) > 1e-6*res.Cost {
			t.Errorf("query %d: reported cost mismatch", q.ID)
		}
	}
}

// Neither heuristic may beat the DP optimum, and Top-Down's gap is bounded
// by Theorem 3.
func TestHeuristicsNeverBeatOptimal(t *testing.T) {
	w := makeWorld(t, 3, 64, 8, 16, 10)
	for _, q := range w.qs {
		opt, err := OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		td, err := TopDown(w.h, w.cat, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		bu, err := BottomUpOpts(w.h, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if td.Cost < opt.Cost-1e-6 {
			t.Errorf("query %d: top-down %g beats optimal %g", q.ID, td.Cost, opt.Cost)
		}
		if bu.Cost < opt.Cost-1e-6 {
			t.Errorf("query %d: bottom-up %g beats optimal %g", q.ID, bu.Cost, opt.Cost)
		}
	}
}

// Single-source queries are routed directly from source to sink by every
// algorithm at identical (optimal) cost.
func TestSingleSourceQuery(t *testing.T) {
	w := makeWorld(t, 4, 32, 4, 5, 0)
	q, err := query.NewQuery(0, []query.StreamID{2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := w.cat.Stream(2).Rate * w.paths.Dist(w.cat.Stream(2).Source, 9)
	for name, run := range map[string]func() (Result, error){
		"topdown":  func() (Result, error) { return TopDown(w.h, w.cat, q, nil) },
		"bottomup": func() (Result, error) { return BottomUpOpts(w.h, w.cat, q, nil, Options{}) },
		"optimal":  func() (Result, error) { return OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Cost-want) > 1e-9 {
			t.Errorf("%s: cost %g, want %g", name, res.Cost, want)
		}
	}
}

// Reuse can only reduce cost, and a perfectly placed derived stream must
// actually be reused.
func TestReuseReducesCost(t *testing.T) {
	w := makeWorld(t, 5, 64, 8, 12, 8)
	reg := ads.NewRegistry()
	// Deploy the first queries without reuse and advertise their operators.
	for _, q := range w.qs[:4] {
		res, err := TopDown(w.h, w.cat, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg.AdvertisePlan(q, res.Plan)
	}
	for _, q := range w.qs[4:] {
		plain, err := TopDown(w.h, w.cat, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := TopDown(w.h, w.cat, q, reg)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Cost > plain.Cost+1e-6 {
			t.Errorf("query %d: reuse increased cost %g -> %g", q.ID, plain.Cost, reused.Cost)
		}
		bplain, err := BottomUpOpts(w.h, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		breused, err := BottomUpOpts(w.h, w.cat, q, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Bottom-Up is a heuristic: ads change its level-by-level goals, so
		// reuse is not guaranteed to help on every query — but it must not
		// blow cost up catastrophically, and on average it helps (checked
		// by the Figure 7 experiment).
		if breused.Cost > 3*bplain.Cost+1e-6 {
			t.Errorf("query %d: bottom-up reuse tripled cost %g -> %g", q.ID, bplain.Cost, breused.Cost)
		}
	}
}

func TestIdenticalQueryIsFullyReused(t *testing.T) {
	w := makeWorld(t, 6, 64, 8, 12, 1)
	q := w.qs[0]
	reg := ads.NewRegistry()
	first, err := TopDown(w.h, w.cat, q, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.AdvertisePlan(q, first.Plan)
	// The same query again, same sink: the whole root can be reused; cost
	// is at most delivering the root output from its existing location.
	q2, _ := query.NewQuery(1, q.Sources, q.Sink)
	second, err := TopDown(w.h, w.cat, q2, reg)
	if err != nil {
		t.Fatal(err)
	}
	rt := query.BuildRates(w.cat, q2)
	cap := rt.Rate(q2.All()) * w.paths.Dist(first.Plan.Loc, q2.Sink)
	if second.Cost > cap+1e-6 {
		t.Errorf("second deployment cost %g exceeds full-reuse cost %g", second.Cost, cap)
	}
}

// The search space actually examined must respect the Theorem 2/4 flavor
// of accounting: orders of magnitude below Lemma 1 for realistic settings.
func TestSearchSpaceReduction(t *testing.T) {
	w := makeWorld(t, 7, 128, 32, 20, 10)
	for _, q := range w.qs {
		td, err := TopDown(w.h, w.cat, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		bu, err := BottomUpOpts(w.h, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's ≥99% reduction is for its 4-stream queries; smaller
		// queries have proportionally smaller exhaustive spaces, so scale
		// the required reduction with K.
		frac := 0.01
		if q.K() <= 3 {
			frac = 0.06
		}
		if td.PlansConsidered >= opt.PlansConsidered*frac {
			t.Errorf("query %d (K=%d): top-down considered %g, exhaustive %g",
				q.ID, q.K(), td.PlansConsidered, opt.PlansConsidered)
		}
		if bu.PlansConsidered >= opt.PlansConsidered*frac {
			t.Errorf("query %d (K=%d): bottom-up considered %g of exhaustive %g", q.ID,
				q.K(), bu.PlansConsidered, opt.PlansConsidered)
		}
	}
}

// On a degenerate single-level hierarchy (max_cs >= N), Top-Down IS the
// exhaustive search and must equal the optimum.
func TestTopDownDegeneratesToOptimal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(10)
		g := netgraph.MustTransitStub(n, rng)
		paths := g.ShortestPaths(netgraph.MetricCost)
		h, err := hierarchy.Build(g, paths, n+1, rng)
		if err != nil || h.Height() != 1 {
			return false
		}
		cat := query.NewCatalog(0.01)
		var ids []query.StreamID
		for i := 0; i < 4; i++ {
			ids = append(ids, cat.Add("s", 1+rng.Float64()*50, netgraph.NodeID(rng.Intn(n))))
		}
		q, err := query.NewQuery(0, ids, netgraph.NodeID(rng.Intn(n)))
		if err != nil {
			return false
		}
		td, err := TopDown(h, cat, q, nil)
		if err != nil {
			return false
		}
		opt, err := OptimalOpts(g, paths, cat, q, nil, Options{})
		if err != nil {
			return false
		}
		return math.Abs(td.Cost-opt.Cost) <= 1e-6*(1+opt.Cost)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Bottom-Up must also match the optimum on a single-level hierarchy.
func TestBottomUpDegeneratesToOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := netgraph.MustTransitStub(12, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, 13, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := query.NewCatalog(0.05)
	var ids []query.StreamID
	for i := 0; i < 3; i++ {
		ids = append(ids, cat.Add("s", 10+rng.Float64()*10, netgraph.NodeID(rng.Intn(12))))
	}
	q, _ := query.NewQuery(0, ids, 3)
	bu, err := BottomUpOpts(h, cat, q, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalOpts(g, paths, cat, q, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bu.Cost-opt.Cost) > 1e-6*(1+opt.Cost) {
		t.Errorf("bottom-up %g != optimal %g on flat hierarchy", bu.Cost, opt.Cost)
	}
}

// Theorem 3: Top-Down's gap to the optimum is bounded by
// Σ_e s_e × Σ_i 2·d_i over the edges of its chosen tree.
func TestTheorem3BoundHolds(t *testing.T) {
	for seed := int64(40); seed < 48; seed++ {
		w := makeWorld(t, seed, 64, 8, 12, 6)
		sumD := w.h.SumD(w.h.Height())
		for _, q := range w.qs {
			td, err := TopDown(w.h, w.cat, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := OptimalOpts(w.g, w.paths, w.cat, q, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			bound := costpkg.Theorem3Bound(costpkg.EdgeRates(td.Plan), sumD)
			if td.Cost > opt.Cost+bound+1e-6 {
				t.Errorf("seed %d query %d: td %g > opt %g + bound %g",
					seed, q.ID, td.Cost, opt.Cost, bound)
			}
		}
	}
}

// Top-Down hands Solve the snapshot as the site-to-site block instead of
// its per-level estimate function. The two must agree on every pair of
// members of every cluster — bit for bit, and on the snapshot the
// hierarchy is bound to now, not the one it was built over.
func TestTopDownSiteBlockMatchesEstimates(t *testing.T) {
	w := makeWorld(t, 9, 96, 5, 12, 0)
	if w.h.Height() < 3 {
		t.Fatalf("fixture too shallow: height %d", w.h.Height())
	}
	rng := rand.New(rand.NewSource(9))
	links := w.g.Links()
	for i := 0; i < 12; i++ {
		l := links[rng.Intn(len(links))]
		if err := w.g.SetLinkCost(l.A, l.B, l.Cost*(1.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	fresh, stats := w.paths.RefreshFrom(w.g, nil)
	if err := w.h.RebindRows(fresh, stats.Rows); err != nil {
		t.Fatal(err)
	}
	moved := false
	for l := 1; l <= w.h.Height(); l++ {
		for _, c := range w.h.LevelAt(l).Clusters {
			for _, u := range c.Members {
				row := w.h.Paths().Row(u)
				for _, v := range c.Members {
					if est := w.h.EstCost(u, v, l); row[v] != est {
						t.Fatalf("level %d: snapshot says %d→%d costs %v, the level estimate %v", l, u, v, row[v], est)
					}
					moved = moved || row[v] != w.paths.Dist(u, v)
				}
			}
		}
	}
	if !moved {
		t.Error("repricing moved no member-to-member distance; the rebind went untested")
	}
}
