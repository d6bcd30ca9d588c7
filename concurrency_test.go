package hnp

import (
	"runtime"
	"sync"
	"testing"
)

// TestPlanAllocatesUniqueQueryIDs is the regression test for the
// duplicate-ID bug: consecutive what-if plans used to share s.nextQuery
// without advancing it, so two Plan calls produced queries with the same
// ID.
func TestPlanAllocatesUniqueQueryIDs(t *testing.T) {
	sys, ids := newTestSystem(t)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		d, err := sys.Plan(ids, 9, AlgoTopDown)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d.Query.ID] {
			t.Fatalf("plan %d reused query ID %d", i, d.Query.ID)
		}
		seen[d.Query.ID] = true
	}
	// Mixed Plan / Deploy / PlanCQL traffic keeps IDs unique too.
	d, err := deploy(sys)(sys.Plan(ids, 9, AlgoTopDown))
	if err != nil {
		t.Fatal(err)
	}
	if seen[d.Query.ID] {
		t.Fatalf("deploy reused query ID %d", d.Query.ID)
	}
	seen[d.Query.ID] = true
	p, err := sys.PlanCQL("SELECT * FROM A, B WHERE A.X = B.X", 9, AlgoTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if seen[p.Query.ID] {
		t.Fatalf("PlanCQL reused query ID %d", p.Query.ID)
	}
}

// TestConcurrentDeploy drives the System's concurrency contract: many
// goroutines deploying against one System must be data-race-free (run
// under -race), produce unique query IDs, and leave the registry and load
// ledger consistent.
func TestConcurrentDeploy(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	sys, ids := newTestSystem(t)

	const (
		goroutines = 8
		perG       = 4
	)
	var wg sync.WaitGroup
	idCh := make(chan int, goroutines*perG)
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sink := NodeID((g*7 + i*3) % sys.Graph.NumNodes())
				d, err := deploy(sys)(sys.Plan(ids, sink, AlgoTopDown))
				if err != nil {
					errCh <- err
					return
				}
				idCh <- d.Query.ID
			}
		}()
	}
	wg.Wait()
	close(idCh)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	n := 0
	for id := range idCh {
		if seen[id] {
			t.Fatalf("duplicate query ID %d across concurrent deploys", id)
		}
		seen[id] = true
		n++
	}
	if n != goroutines*perG {
		t.Fatalf("%d deployments succeeded, want %d", n, goroutines*perG)
	}
	if sys.Registry.Len() == 0 {
		t.Fatal("no advertisements after concurrent deploys")
	}
}

// TestConcurrentPlanWithRefresh interleaves what-if planning with Refresh
// after graph mutations: the snapshot swap must never race in-flight
// planners.
func TestConcurrentPlanWithRefresh(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	sys, ids := newTestSystem(t)
	links := sys.Graph.Links()

	stop := make(chan struct{})
	refresherDone := make(chan struct{})
	go func() {
		defer close(refresherDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := links[i%len(links)]
			// Graph mutation + Refresh; the link keeps its original cost
			// (SetLinkCost to the same value still bumps the version), so
			// planner results stay sane while snapshots churn.
			if err := sys.Graph.SetLinkCost(l.A, l.B, l.Cost); err != nil {
				t.Error(err)
				return
			}
			sys.Refresh()
		}
	}()

	var planners sync.WaitGroup
	for g := 0; g < 4; g++ {
		planners.Add(1)
		go func() {
			defer planners.Done()
			for i := 0; i < 5; i++ {
				if _, err := sys.Plan(ids, 9, AlgoTopDown); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	planners.Wait()
	close(stop)
	<-refresherDone
}
