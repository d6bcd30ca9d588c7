package hierarchy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hnp/internal/netgraph"
)

func buildTest(t *testing.T, n, maxCS int, seed int64) (*Hierarchy, *netgraph.Graph, *netgraph.Paths) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(n, rng)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, maxCS, rng)
	if err != nil {
		t.Fatal(err)
	}
	return h, g, p
}

// validate checks all structural invariants of a hierarchy.
func validate(t *testing.T, h *Hierarchy) {
	t.Helper()
	if h.Height() < 1 {
		t.Fatal("height < 1")
	}
	top := h.LevelAt(h.Height())
	if len(top.Clusters) != 1 {
		t.Fatalf("top level has %d clusters", len(top.Clusters))
	}
	for l := 1; l <= h.Height(); l++ {
		lvl := h.LevelAt(l)
		if lvl.Index != l {
			t.Errorf("level %d has Index %d", l, lvl.Index)
		}
		seen := map[netgraph.NodeID]bool{}
		for _, c := range lvl.Clusters {
			if c.Level != l {
				t.Errorf("cluster at level %d labelled %d", l, c.Level)
			}
			if len(c.Members) == 0 {
				t.Errorf("empty cluster at level %d", l)
			}
			if len(c.Members) > h.MaxCS() {
				t.Errorf("level %d cluster has %d members > max_cs %d", l, len(c.Members), h.MaxCS())
			}
			foundCoord := false
			for _, m := range c.Members {
				if seen[m] {
					t.Errorf("node %d in two clusters at level %d", m, l)
				}
				seen[m] = true
				if h.ClusterOf(m, l) != c {
					t.Errorf("byNode inconsistent for %d at level %d", m, l)
				}
				if m == c.Coordinator {
					foundCoord = true
				}
			}
			if !foundCoord {
				t.Errorf("coordinator %d not a member at level %d", c.Coordinator, l)
			}
		}
		// Nodes at level l+1 are exactly the coordinators of level l.
		if l < h.Height() {
			up := h.LevelAt(l + 1)
			upNodes := map[netgraph.NodeID]bool{}
			for _, c := range up.Clusters {
				for _, m := range c.Members {
					upNodes[m] = true
				}
			}
			coords := map[netgraph.NodeID]bool{}
			for _, c := range lvl.Clusters {
				coords[c.Coordinator] = true
			}
			if len(upNodes) != len(coords) {
				t.Errorf("level %d: %d nodes above vs %d coordinators", l, len(upNodes), len(coords))
			}
			for m := range upNodes {
				if !coords[m] {
					t.Errorf("node %d at level %d is not a level-%d coordinator", m, l+1, l)
				}
			}
		}
	}
	// Cover of the top cluster is every active node, exactly once.
	cover := h.Cover(h.Top())
	seen := map[netgraph.NodeID]bool{}
	for _, v := range cover {
		if seen[v] {
			t.Errorf("node %d covered twice", v)
		}
		seen[v] = true
	}
	for _, c := range h.LevelAt(1).Clusters {
		for _, m := range c.Members {
			if !seen[m] {
				t.Errorf("active node %d missing from top cover", m)
			}
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	for _, tc := range []struct{ n, maxCS int }{
		{8, 4}, {32, 4}, {64, 8}, {128, 32}, {128, 2},
	} {
		h, _, _ := buildTest(t, tc.n, tc.maxCS, int64(tc.n*100+tc.maxCS))
		validate(t, h)
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := netgraph.Line(4, 0)
	p := g.ShortestPaths(netgraph.MetricCost)
	if _, err := Build(g, p, 0, rng); err == nil {
		t.Error("maxCS=0 accepted")
	}
	if _, err := Build(g, p, 1, rng); err == nil {
		t.Error("maxCS=1 accepted")
	}
	if _, err := Build(netgraph.New(0), p, 4, rng); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := netgraph.New(1)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Height() != 1 {
		t.Errorf("height = %d", h.Height())
	}
	if h.Rep(0, 1) != 0 {
		t.Error("Rep broken for single node")
	}
}

func TestHeightGrowsAsMaxCSShrinks(t *testing.T) {
	h2, _, _ := buildTest(t, 128, 2, 1)
	h32, _, _ := buildTest(t, 128, 32, 1)
	if h2.Height() <= h32.Height() {
		t.Errorf("height(maxCS=2)=%d should exceed height(maxCS=32)=%d", h2.Height(), h32.Height())
	}
	// Sanity versus the log bound: height is near log_maxCS(N).
	if h32.Height() > 4 {
		t.Errorf("height %d too large for 128 nodes / max_cs 32", h32.Height())
	}
}

func TestRepAndEstCostLevel1IsExact(t *testing.T) {
	h, _, p := buildTest(t, 64, 8, 2)
	for v := netgraph.NodeID(0); v < 64; v++ {
		if h.Rep(v, 1) != v {
			t.Fatalf("Rep(%d,1) = %d", v, h.Rep(v, 1))
		}
	}
	if got, want := h.EstCost(3, 40, 1), p.Dist(3, 40); got != want {
		t.Errorf("EstCost at level 1 = %g, want %g", got, want)
	}
}

// Theorem 1: |actual - estimated at level l| <= sum_{i<l} 2*d_i.
func TestTheorem1Bound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(100)
		maxCS := 2 + rng.Intn(10)
		g := netgraph.MustTransitStub(n, rng)
		p := g.ShortestPaths(netgraph.MetricCost)
		h, err := Build(g, p, maxCS, rng)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			a := netgraph.NodeID(rng.Intn(n))
			b := netgraph.NodeID(rng.Intn(n))
			for l := 1; l <= h.Height(); l++ {
				act := p.Dist(a, b)
				est := h.EstCost(a, b, l)
				if math.Abs(act-est) > h.SumD(l)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCoverPartitionsNetwork(t *testing.T) {
	h, g, _ := buildTest(t, 128, 16, 3)
	total := 0
	for _, c := range h.LevelAt(h.Height()).Clusters {
		total += len(h.Cover(c))
	}
	if total != g.NumNodes() {
		t.Errorf("top cover size %d, want %d", total, g.NumNodes())
	}
	// Covers of sibling level-2 clusters are disjoint.
	if h.Height() >= 2 {
		seen := map[netgraph.NodeID]int{}
		for ci, c := range h.LevelAt(2).Clusters {
			for _, v := range h.Cover(c) {
				if prev, ok := seen[v]; ok {
					t.Fatalf("node %d in covers of clusters %d and %d", v, prev, ci)
				}
				seen[v] = ci
			}
		}
	}
}

func TestChildCluster(t *testing.T) {
	h, _, _ := buildTest(t, 64, 8, 4)
	if h.ChildCluster(0, 1) != nil {
		t.Error("level-1 child should be nil")
	}
	for _, c := range h.LevelAt(2).Clusters {
		for _, m := range c.Members {
			child := h.ChildCluster(m, 2)
			if child == nil || child.Coordinator != m {
				t.Errorf("child of %d has coordinator %v", m, child)
			}
		}
	}
}

func TestRemoveLeafNode(t *testing.T) {
	h, _, _ := buildTest(t, 64, 8, 5)
	// Pick a non-coordinator node at level 1.
	var victim netgraph.NodeID = -1
	for _, c := range h.LevelAt(1).Clusters {
		for _, m := range c.Members {
			if m != c.Coordinator {
				victim = m
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if err := h.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if h.Contains(victim) {
		t.Error("victim still present")
	}
	validate(t, h)
	if err := h.RemoveNode(victim); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRemoveCoordinatorPromotesReplacement(t *testing.T) {
	h, _, _ := buildTest(t, 64, 8, 6)
	// Remove the root coordinator: the worst case for propagation.
	root := h.Top().Coordinator
	if err := h.RemoveNode(root); err != nil {
		t.Fatal(err)
	}
	if h.Contains(root) {
		t.Error("root still present at level 1")
	}
	validate(t, h)
	for l := 1; l <= h.Height(); l++ {
		if h.ClusterOf(root, l) != nil {
			t.Errorf("removed root still at level %d", l)
		}
	}
}

func TestRemoveManyNodesKeepsInvariants(t *testing.T) {
	h, g, _ := buildTest(t, 64, 4, 7)
	rng := rand.New(rand.NewSource(77))
	removed := map[netgraph.NodeID]bool{}
	for i := 0; i < 40; i++ {
		v := netgraph.NodeID(rng.Intn(g.NumNodes()))
		if removed[v] {
			continue
		}
		if err := h.RemoveNode(v); err != nil {
			t.Fatalf("remove %d: %v", v, err)
		}
		removed[v] = true
		validate(t, h)
	}
}

func TestAddNodeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := netgraph.MustTransitStub(32, rng)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate arrival: remove a node, then re-join it.
	if err := h.RemoveNode(20); err != nil {
		t.Fatal(err)
	}
	if err := h.AddNode(20); err != nil {
		t.Fatal(err)
	}
	if !h.Contains(20) {
		t.Error("node 20 not present after join")
	}
	validate(t, h)
	if err := h.AddNode(20); err == nil {
		t.Error("double add accepted")
	}
	if err := h.AddNode(netgraph.NodeID(g.NumNodes())); err == nil {
		t.Error("out-of-graph node accepted")
	}
}

func TestAddNodeCascadingSplits(t *testing.T) {
	// Remove a third of the nodes then add them all back with max_cs 3:
	// splits must cascade and invariants must hold throughout.
	rng := rand.New(rand.NewSource(9))
	g := netgraph.MustTransitStub(48, rng)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	var victims []netgraph.NodeID
	for v := netgraph.NodeID(4); v < 20; v++ {
		victims = append(victims, v)
	}
	for _, v := range victims {
		if err := h.RemoveNode(v); err != nil {
			t.Fatalf("remove %d: %v", v, err)
		}
	}
	validate(t, h)
	for _, v := range victims {
		if err := h.AddNode(v); err != nil {
			t.Fatalf("add %d: %v", v, err)
		}
		validate(t, h)
	}
	for _, v := range victims {
		if !h.Contains(v) {
			t.Errorf("node %d missing after re-add", v)
		}
	}
}

func TestRebindUpdatesDiameters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := netgraph.Line(8, 0)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := h.LevelAt(1).MaxDiameter()
	if err := g.SetLinkCost(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil)
	after := h.LevelAt(1).MaxDiameter()
	if after <= before {
		t.Errorf("diameter %g not increased after cost bump (was %g)", after, before)
	}
}

func TestNumClusters(t *testing.T) {
	h, _, _ := buildTest(t, 64, 8, 11)
	want := 0
	for l := 1; l <= h.Height(); l++ {
		want += len(h.LevelAt(l).Clusters)
	}
	if got := h.NumClusters(); got != want {
		t.Errorf("NumClusters = %d, want %d", got, want)
	}
}

// Property: arbitrary interleavings of node departures and re-joins keep
// every structural invariant intact.
func TestChurnProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(48)
		maxCS := 3 + rng.Intn(8)
		g := netgraph.MustTransitStub(n, rng)
		p := g.ShortestPaths(netgraph.MetricCost)
		h, err := Build(g, p, maxCS, rng)
		if err != nil {
			return false
		}
		out := map[netgraph.NodeID]bool{}
		present := n
		for step := 0; step < 30; step++ {
			v := netgraph.NodeID(rng.Intn(n))
			if out[v] {
				if err := h.AddNode(v); err != nil {
					return false
				}
				delete(out, v)
				present++
			} else if present > 2 {
				if err := h.RemoveNode(v); err != nil {
					return false
				}
				out[v] = true
				present--
			}
			// Spot-check the key invariants cheaply each step.
			if len(h.LevelAt(h.Height()).Clusters) != 1 {
				return false
			}
			if len(h.Cover(h.Top())) != present {
				return false
			}
			for l := 1; l <= h.Height(); l++ {
				for _, c := range h.LevelAt(l).Clusters {
					if len(c.Members) == 0 || len(c.Members) > maxCS {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
