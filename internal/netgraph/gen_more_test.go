package netgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Grid(4, 5, CostRange{1, 2}, CostRange{0, 0.01}, rng)
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Links: rows*(cols-1) + cols*(rows-1) = 4*4 + 5*3 = 31.
	if g.NumLinks() != 31 {
		t.Errorf("links = %d, want 31", g.NumLinks())
	}
	if !g.Connected() {
		t.Error("grid not connected")
	}
	// Corner has degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(NodeID(1*5+2)) != 4 {
		t.Errorf("interior degree = %d", g.Degree(6))
	}
}

func TestScaleFreeConnectedAndHubby(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		g := ScaleFree(n, 2, CostRange{1, 5}, CostRange{0, 0.01}, rng)
		return g.NumNodes() == n && g.Connected()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	// Hubs: the max degree should far exceed the attachment parameter.
	rng := rand.New(rand.NewSource(9))
	g := ScaleFree(200, 2, CostRange{1, 2}, CostRange{0, 0.01}, rng)
	maxDeg := 0
	for v := 0; v < 200; v++ {
		if d := g.Degree(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 10 {
		t.Errorf("max degree %d; no hubs emerged", maxDeg)
	}
}

func TestScaleFreeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := ScaleFree(0, 2, CostRange{1, 1}, CostRange{}, rng); g.NumNodes() != 0 {
		t.Error("empty scale-free broken")
	}
	if g := ScaleFree(1, 2, CostRange{1, 1}, CostRange{}, rng); g.NumNodes() != 1 {
		t.Error("singleton scale-free broken")
	}
	g := ScaleFree(5, 0, CostRange{1, 1}, CostRange{}, rng)
	if !g.Connected() {
		t.Error("m=0 clamped to 1 should stay connected")
	}
}
