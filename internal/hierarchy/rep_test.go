package hierarchy

import (
	"fmt"
	"math/rand"
	"testing"

	"hnp/internal/netgraph"
)

// repWalk is the pre-table reference implementation of Rep: walk the
// coordinator chain up the hierarchy one byNode lookup per level. The
// dense rep table must agree with it everywhere, always.
func repWalk(h *Hierarchy, v netgraph.NodeID, level int) netgraph.NodeID {
	r := v
	for i := 1; i < level; i++ {
		c := h.lvls[i-1].byNode[r]
		if c == nil {
			panic("rep_test: node absent mid-chain")
		}
		r = c.Coordinator
	}
	return r
}

// checkRepAgainstWalk asserts Rep and EstCost computed via the dense table
// match the chain walk for every present node at every level.
func checkRepAgainstWalk(t *testing.T, h *Hierarchy, tag string) {
	t.Helper()
	n := h.Graph().NumNodes()
	for v := 0; v < n; v++ {
		id := netgraph.NodeID(v)
		if !h.Contains(id) {
			continue
		}
		for l := 1; l <= h.Height(); l++ {
			want := repWalk(h, id, l)
			if got := h.Rep(id, l); got != want {
				t.Fatalf("%s: Rep(%d, %d) = %d, walk gives %d", tag, v, l, got, want)
			}
		}
	}
	// EstCost spot check across a few random pairs at each level.
	rng := rand.New(rand.NewSource(int64(n)))
	for l := 1; l <= h.Height(); l++ {
		for trial := 0; trial < 32; trial++ {
			a := netgraph.NodeID(rng.Intn(n))
			b := netgraph.NodeID(rng.Intn(n))
			if !h.Contains(a) || !h.Contains(b) {
				continue
			}
			want := h.Paths().Dist(repWalk(h, a, l), repWalk(h, b, l))
			if got := h.EstCost(a, b, l); got != want {
				t.Fatalf("%s: EstCost(%d, %d, %d) = %g, walk gives %g", tag, a, b, l, got, want)
			}
		}
	}
}

// TestRepTableMatchesChainWalk pins the dense rep table to the explicit
// coordinator-chain walk across random hierarchies, including after every
// maintenance operation (Rebind, AddNode, RemoveNode) that rebuilds it.
func TestRepTableMatchesChainWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		g := netgraph.Random(n, 2.5, netgraph.CostRange{Lo: 1, Hi: 10}, netgraph.CostRange{Lo: 0.001, Hi: 0.05}, rng)
		paths := g.ShortestPaths(netgraph.MetricCost)
		maxCS := 3 + rng.Intn(6)
		h, err := Build(g, paths, maxCS, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkRepAgainstWalk(t, h, "fresh build")

		// RemoveNode: drop a few members, some of them coordinators
		// (removing a level-1 coordinator exercises promotion substitution).
		var removed []netgraph.NodeID
		for i := 0; i < 3; i++ {
			var victim netgraph.NodeID = -1
			if i == 0 {
				victim = h.LevelAt(1).Clusters[0].Coordinator
			} else {
				for {
					cand := netgraph.NodeID(rng.Intn(n))
					if h.Contains(cand) {
						victim = cand
						break
					}
				}
			}
			if err := h.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, victim)
			checkRepAgainstWalk(t, h, "after RemoveNode")
		}

		// Rebind: mutate a link cost and swap in a fresh snapshot.
		links := g.Links()
		l := links[rng.Intn(len(links))]
		if err := g.SetLinkCost(l.A, l.B, l.Cost+1); err != nil {
			t.Fatal(err)
		}
		paths = g.ShortestPaths(netgraph.MetricCost)
		if err := h.RebindRows(paths, nil); err != nil {
			t.Fatal(err)
		}
		checkRepAgainstWalk(t, h, "after Rebind")

		// AddNode: re-join the removed nodes (splits can cascade and grow
		// new levels).
		for _, v := range removed {
			if err := h.AddNode(v); err != nil {
				t.Fatal(err)
			}
			checkRepAgainstWalk(t, h, "after AddNode")
		}
	}
}

// TestChurnInvariants is a property test: under long random sequences of
// RemoveNode / AddNode / Rebind churn, every structural invariant the
// hierarchy promises (partition per level, size caps, coordinator
// membership, exact diameters, promotion bijection, single top cluster,
// fresh paths, dense rep table) must hold after every single operation.
func TestChurnInvariants(t *testing.T) {
	ops := 120
	if testing.Short() {
		ops = 40
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		g := netgraph.Random(n, 2.5, netgraph.CostRange{Lo: 1, Hi: 10}, netgraph.CostRange{Lo: 0.001, Hi: 0.05}, rng)
		paths := g.ShortestPaths(netgraph.MetricCost)
		maxCS := 3 + rng.Intn(5)
		h, err := Build(g, paths, maxCS, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: fresh build: %v", seed, err)
		}

		present := make([]bool, n)
		absent := make([]netgraph.NodeID, 0, n)
		for i := range present {
			present[i] = true
		}
		minPresent := n / 3
		nPresent := n

		for op := 0; op < ops; op++ {
			var desc string
			switch k := rng.Intn(5); {
			case k <= 1 && nPresent > minPresent: // remove
				var members []netgraph.NodeID
				for v, ok := range present {
					if ok {
						members = append(members, netgraph.NodeID(v))
					}
				}
				v := members[rng.Intn(len(members))]
				desc = fmt.Sprintf("RemoveNode(%d)", v)
				if err := h.RemoveNode(v); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, desc, err)
				}
				present[v] = false
				absent = append(absent, v)
				nPresent--
			case k <= 3 && len(absent) > 0: // add back
				i := rng.Intn(len(absent))
				v := absent[i]
				desc = fmt.Sprintf("AddNode(%d)", v)
				if err := h.AddNode(v); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, desc, err)
				}
				absent = append(absent[:i], absent[i+1:]...)
				present[v] = true
				nPresent++
			default: // rebind after link churn
				links := g.Links()
				l := links[rng.Intn(len(links))]
				cost := l.Cost * (0.5 + rng.Float64()*1.5)
				desc = fmt.Sprintf("Rebind(link %d-%d -> %.3f)", l.A, l.B, cost)
				if err := g.SetLinkCost(l.A, l.B, cost); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, desc, err)
				}
				if err := h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, desc, err)
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: after %s: %v", seed, op, desc, err)
			}
			for v, ok := range present {
				if h.Contains(netgraph.NodeID(v)) != ok {
					t.Fatalf("seed %d op %d: after %s: node %d present=%v, hierarchy says %v",
						seed, op, desc, v, ok, !ok)
				}
			}
		}
	}
}

// TestMembersAreOwnReps pins the fact the planners' distance gather rests
// on: a member of a level-l cluster is its own level-l representative, so
// the estimated distance between two members is their physical distance.
// It must survive everything that rewrites the level structure — removals
// that re-elect coordinators, drop clusters and shrink the top, additions
// that split clusters and grow new levels, and rebinds.
func TestMembersAreOwnReps(t *testing.T) {
	check := func(h *Hierarchy, tag string) {
		t.Helper()
		for l := 1; l <= h.Height(); l++ {
			for _, c := range h.LevelAt(l).Clusters {
				for _, m := range c.Members {
					if got := h.Rep(m, c.Level); got != m {
						t.Fatalf("%s: member %d of a level-%d cluster has representative %d", tag, m, l, got)
					}
				}
			}
		}
	}
	shrank, grew := false, false
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		g := netgraph.Random(n, 2.5, netgraph.CostRange{Lo: 1, Hi: 10}, netgraph.CostRange{Lo: 0.001, Hi: 0.05}, rng)
		paths := g.ShortestPaths(netgraph.MetricCost)
		h, err := Build(g, paths, 3+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		check(h, "fresh build")
		built := h.Height()

		// Remove most nodes, coordinators first: clusters empty out and the
		// top shrinks.
		var removed []netgraph.NodeID
		for len(removed) < n-1 { // down to one node: nothing above level 1 carries information
			victim := h.LevelAt(1).Clusters[0].Coordinator
			if len(removed)%2 == 1 {
				for victim = netgraph.NodeID(rng.Intn(n)); !h.Contains(victim); {
					victim = netgraph.NodeID(rng.Intn(n))
				}
			}
			if err := h.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, victim)
			check(h, fmt.Sprintf("after RemoveNode(%d)", victim))
		}
		shrank = shrank || h.Height() < built
		low := h.Height()

		links := g.Links()
		l := links[rng.Intn(len(links))]
		if err := g.SetLinkCost(l.A, l.B, l.Cost+3); err != nil {
			t.Fatal(err)
		}
		if err := h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
			t.Fatal(err)
		}
		check(h, "after RebindRows")

		// Re-join everyone: clusters overflow, split, and levels grow back.
		for _, v := range removed {
			if err := h.AddNode(v); err != nil {
				t.Fatal(err)
			}
			check(h, fmt.Sprintf("after AddNode(%d)", v))
		}
		grew = grew || h.Height() > low
	}
	if !shrank || !grew {
		t.Errorf("fixture never exercised shrinkTop (%v) or a level-growing split (%v)", shrank, grew)
	}
}
