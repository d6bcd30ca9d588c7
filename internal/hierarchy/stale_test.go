package hierarchy

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hnp/internal/netgraph"
)

func staleWorld(t *testing.T) (*netgraph.Graph, *Hierarchy) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := netgraph.MustTransitStub(32, rng)
	p := g.ShortestPaths(netgraph.MetricCost)
	h, err := Build(g, p, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, h
}

// TestRebindRejectsStaleSnapshot: a snapshot computed before the latest
// graph mutation must be refused — rebinding to it would measure every
// cluster diameter against a network that no longer exists.
func TestRebindRejectsStaleSnapshot(t *testing.T) {
	g, h := staleWorld(t)
	old := g.ShortestPaths(netgraph.MetricCost)
	links := g.Links()
	if err := g.SetLinkCost(links[0].A, links[0].B, links[0].Cost*5); err != nil {
		t.Fatal(err)
	}
	if err := h.RebindRows(old, nil); err == nil {
		t.Fatal("Rebind accepted a stale snapshot")
	}
	if err := h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
		t.Fatalf("Rebind rejected a fresh snapshot: %v", err)
	}
}

// TestAddNodeRejectsStaleSnapshot: after the graph mutates, AddNode must
// demand a Rebind instead of routing the join through outdated distances.
func TestAddNodeRejectsStaleSnapshot(t *testing.T) {
	g, h := staleWorld(t)
	if err := h.RemoveNode(20); err != nil {
		t.Fatal(err)
	}
	links := g.Links()
	if err := g.SetLinkCost(links[0].A, links[0].B, links[0].Cost*5); err != nil {
		t.Fatal(err)
	}
	if err := h.AddNode(20); err == nil {
		t.Fatal("AddNode accepted a stale snapshot")
	}
	if err := h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
		t.Fatal(err)
	}
	if err := h.AddNode(20); err != nil {
		t.Fatalf("AddNode after Rebind: %v", err)
	}
}

// TestCoverConcurrent exercises the lazily-filled cover cache from many
// goroutines at once (run with -race): concurrent planners share one
// hierarchy.
func TestCoverConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	_, h := staleWorld(t)
	want := len(h.Cover(h.Top()))
	h.invalidate()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := len(h.Cover(h.Top())); got != want {
					t.Errorf("cover size %d, want %d", got, want)
					return
				}
				for l := 1; l <= h.Height(); l++ {
					for _, c := range h.LevelAt(l).Clusters {
						h.Cover(c)
					}
				}
			}
		}()
	}
	wg.Wait()
}
