package netgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransitStubExactSizeAndConnected(t *testing.T) {
	for _, n := range []int{8, 32, 64, 128, 511, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := MustTransitStub(n, rng)
		if g.NumNodes() != n {
			t.Errorf("n=%d: NumNodes = %d", n, g.NumNodes())
		}
		if !g.Connected() {
			t.Errorf("n=%d: not connected", n)
		}
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	a := MustTransitStub(64, rand.New(rand.NewSource(7)))
	b := MustTransitStub(64, rand.New(rand.NewSource(7)))
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestTransitStubCostStructure(t *testing.T) {
	cfg := DefaultTransitStub(128)
	rng := rand.New(rand.NewSource(1))
	g, err := TransitStub(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	t0 := NodeID(0)
	// Every transit-transit link must be costlier than every stub-stub link.
	minTransit, maxStub := 1e18, 0.0
	for _, l := range g.Links() {
		isTransit := l.A < NodeID(cfg.TransitNodes) && l.B < NodeID(cfg.TransitNodes)
		isStub := l.A >= NodeID(cfg.TransitNodes) && l.B >= NodeID(cfg.TransitNodes)
		switch {
		case isTransit:
			if l.Cost < minTransit {
				minTransit = l.Cost
			}
		case isStub:
			if l.Cost > maxStub {
				maxStub = l.Cost
			}
		}
		if l.Delay < linkDelay.Lo || l.Delay > linkDelay.Hi {
			t.Errorf("delay %g outside [%g,%g]", l.Delay, linkDelay.Lo, linkDelay.Hi)
		}
	}
	if minTransit <= maxStub {
		t.Errorf("transit links (min %g) not costlier than stub links (max %g)", minTransit, maxStub)
	}
	_ = t0
}

func TestTransitStubConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []TransitStubConfig{
		{TotalNodes: 3, TransitNodes: 4, StubsPerTransit: 1},
		{TotalNodes: 10, TransitNodes: 0, StubsPerTransit: 1},
		{TotalNodes: 10, TransitNodes: 2, StubsPerTransit: 0},
	}
	for i, cfg := range bad {
		if _, err := TransitStub(cfg, rng); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := Random(n, 3, CostRange{1, 2}, CostRange{0, 0.01}, rng)
		return g.Connected() && g.NumNodes() == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLineAndStar(t *testing.T) {
	if g := Line(1, 0); g.NumLinks() != 0 {
		t.Error("Line(1) has links")
	}
	g := Star(5, 0.002)
	if g.Degree(0) != 4 {
		t.Errorf("star center degree = %d", g.Degree(0))
	}
	for i := 1; i < 5; i++ {
		if g.Degree(NodeID(i)) != 1 {
			t.Errorf("leaf %d degree = %d", i, g.Degree(NodeID(i)))
		}
	}
}

func TestCostRangeDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := CostRange{3, 3}
	if v := r.draw(rng); v != 3 {
		t.Errorf("degenerate range draw = %g", v)
	}
	r = CostRange{1, 2}
	for i := 0; i < 100; i++ {
		if v := r.draw(rng); v < 1 || v > 2 {
			t.Fatalf("draw %g outside range", v)
		}
	}
}
