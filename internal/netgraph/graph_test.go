package netgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddLinkValidation(t *testing.T) {
	g := New(3)
	if err := g.AddLink(0, 0, 1, 0); err == nil {
		t.Error("self-link accepted")
	}
	if err := g.AddLink(0, 3, 1, 0); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddLink(-1, 1, 1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddLink(0, 1, 0, 0); err == nil {
		t.Error("zero cost accepted")
	}
	if err := g.AddLink(0, 1, 1, -1); err == nil {
		t.Error("negative delay accepted")
	}
	if err := g.AddLink(0, 1, 2, 0.5); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if err := g.AddLink(1, 0, 2, 0.5); err == nil {
		t.Error("duplicate link accepted")
	}
	if g.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", g.NumLinks())
	}
}

func TestLinksSortedAndSymmetric(t *testing.T) {
	g := New(4)
	g.MustAddLink(3, 1, 2, 0)
	g.MustAddLink(2, 0, 1, 0)
	g.MustAddLink(0, 1, 5, 0)
	ls := g.Links()
	if len(ls) != 3 {
		t.Fatalf("len(Links) = %d, want 3", len(ls))
	}
	for i, l := range ls {
		if l.A >= l.B {
			t.Errorf("link %d not normalized: %v", i, l)
		}
		if i > 0 && (ls[i-1].A > l.A || (ls[i-1].A == l.A && ls[i-1].B > l.B)) {
			t.Errorf("links not sorted at %d", i)
		}
	}
	if c, ok := g.LinkCost(1, 3); !ok || c != 2 {
		t.Errorf("LinkCost(1,3) = %g,%v", c, ok)
	}
	if c, ok := g.LinkCost(3, 1); !ok || c != 2 {
		t.Errorf("LinkCost(3,1) = %g,%v", c, ok)
	}
}

func TestSetLinkCost(t *testing.T) {
	g := New(2)
	g.MustAddLink(0, 1, 1, 0)
	v := g.Version()
	if err := g.SetLinkCost(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if c, _ := g.LinkCost(1, 0); c != 9 {
		t.Errorf("cost not updated symmetrically: %g", c)
	}
	if g.Version() == v {
		t.Error("version not bumped")
	}
	if err := g.SetLinkCost(0, 1, -1); err == nil {
		t.Error("negative cost accepted")
	}
	if err := g.SetLinkCost(1, 1, 2); err == nil {
		t.Error("missing link accepted")
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	g.MustAddLink(0, 1, 1, 0)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.MustAddLink(1, 2, 1, 0)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !New(0).Connected() {
		t.Error("empty graph should be connected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(2)
	g.MustAddLink(0, 1, 1, 0)
	c := g.Clone()
	if err := c.SetLinkCost(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if cost, _ := g.LinkCost(0, 1); cost != 1 {
		t.Error("mutating clone changed original")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := Line(5, 0.01)
	dist, hop := g.Dijkstra(0, MetricCost)
	for i := 0; i < 5; i++ {
		if dist[i] != float64(i) {
			t.Errorf("dist[%d] = %g, want %d", i, dist[i], i)
		}
	}
	if hop[4] != 1 {
		t.Errorf("firstHop to 4 = %d, want 1", hop[4])
	}
	dDist, _ := g.Dijkstra(0, MetricDelay)
	if math.Abs(dDist[4]-0.04) > 1e-12 {
		t.Errorf("delay dist = %g, want 0.04", dDist[4])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddLink(0, 1, 1, 0)
	dist, hop := g.Dijkstra(0, MetricCost)
	if !math.IsInf(dist[2], 1) || hop[2] != -1 {
		t.Errorf("unreachable node: dist=%g hop=%d", dist[2], hop[2])
	}
	p := g.ShortestPaths(MetricCost)
	if p.Reachable(0, 2) {
		t.Error("Reachable(0,2) = true")
	}
	if got := p.Path(0, 2); got != nil {
		t.Errorf("Path to unreachable = %v", got)
	}
	if p.Hops(0, 2) != -1 {
		t.Error("Hops to unreachable != -1")
	}
}

func TestPathsPreferCheapDetour(t *testing.T) {
	// Direct 0-2 link costs 10; detour through 1 costs 2.
	g := New(3)
	g.MustAddLink(0, 2, 10, 0)
	g.MustAddLink(0, 1, 1, 0)
	g.MustAddLink(1, 2, 1, 0)
	p := g.ShortestPaths(MetricCost)
	if p.Dist(0, 2) != 2 {
		t.Errorf("Dist(0,2) = %g, want 2", p.Dist(0, 2))
	}
	want := []NodeID{0, 1, 2}
	got := p.Path(0, 2)
	if len(got) != len(want) {
		t.Fatalf("Path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path = %v, want %v", got, want)
		}
	}
	if p.Hops(0, 2) != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops(0, 2))
	}
}

func TestMedoidAndMaxPairwise(t *testing.T) {
	g := Line(5, 0)
	p := g.ShortestPaths(MetricCost)
	if m := p.Medoid([]NodeID{0, 1, 2, 3, 4}); m != 2 {
		t.Errorf("Medoid = %d, want 2", m)
	}
	if d := p.MaxPairwise([]NodeID{0, 4}); d != 4 {
		t.Errorf("MaxPairwise = %g, want 4", d)
	}
	if d := p.MaxPairwise([]NodeID{3}); d != 0 {
		t.Errorf("MaxPairwise single = %g, want 0", d)
	}
}

func TestPathSelfIsSingleton(t *testing.T) {
	g := Line(2, 0)
	p := g.ShortestPaths(MetricCost)
	path := p.Path(1, 1)
	if len(path) != 1 || path[0] != 1 {
		t.Errorf("Path(1,1) = %v", path)
	}
}

// Property: shortest-path distances form a metric (symmetry + triangle
// inequality) on connected random graphs.
func TestPathsMetricProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		g := Random(n, 3, CostRange{1, 10}, CostRange{0.001, 0.01}, rng)
		p := g.ShortestPaths(MetricCost)
		for i := 0; i < n; i++ {
			if p.Dist(NodeID(i), NodeID(i)) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if math.Abs(p.Dist(NodeID(i), NodeID(j))-p.Dist(NodeID(j), NodeID(i))) > 1e-9 {
					return false
				}
				for k := 0; k < n; k++ {
					if p.Dist(NodeID(i), NodeID(j)) >
						p.Dist(NodeID(i), NodeID(k))+p.Dist(NodeID(k), NodeID(j))+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: walking the reported path and summing link costs reproduces the
// reported distance.
func TestPathCostMatchesDist(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := Random(n, 2.5, CostRange{1, 5}, CostRange{0, 0}, rng)
		p := g.ShortestPaths(MetricCost)
		for trial := 0; trial < 20; trial++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			path := p.Path(a, b)
			if path == nil {
				continue
			}
			sum := 0.0
			for i := 0; i+1 < len(path); i++ {
				c, ok := g.LinkCost(path[i], path[i+1])
				if !ok {
					return false
				}
				sum += c
			}
			if math.Abs(sum-p.Dist(a, b)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEccentricity(t *testing.T) {
	g := Line(4, 0)
	p := g.ShortestPaths(MetricCost)
	if e := p.Eccentricity(0); e != 3 {
		t.Errorf("Eccentricity(0) = %g, want 3", e)
	}
	if e := p.Eccentricity(1); e != 2 {
		t.Errorf("Eccentricity(1) = %g, want 2", e)
	}
}

// Dijkstra is dijkstraInto with slices of its own: it computes single-source shortest distances and first hops from
// src under metric m. Unreachable nodes get +Inf distance and first hop -1.
func (g *Graph) Dijkstra(src NodeID, m Metric) (dist []float64, firstHop []int32) {
	n := len(g.adj)
	dist = make([]float64, n)
	firstHop = make([]int32, n)
	g.dijkstraInto(src, m, dist, firstHop, &pq{})
	return dist, firstHop
}
