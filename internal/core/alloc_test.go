package core

import (
	"testing"

	"hnp/internal/netgraph"
)

// TestSolveSteadyStateAllocsOnlyPlan pins the pooled DP kernel: once the
// solve scratch is warm, Solve allocates the plan it returns and nothing
// else. The fixture's plan is a join over two leaves — three nodes and
// the two leaf inputs, five objects — so any map, closure escape or
// per-submask slice that sneaks back into the DP shows up here as a
// count above five.
func TestSolveSteadyStateAllocsOnlyPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin is only meaningful without it")
	}
	p, _, _ := problemFixture(1, true)
	var err error
	if p.Sites, err = dedupeSites(p.Sites); err != nil { // unique sites: the no-copy fast path
		t.Fatal(err)
	}
	if _, _, err := Solve(p); err != nil {
		t.Fatal(err)
	}
	// A GC between runs can evict the pooled scratch and force a one-off
	// re-allocation; retry a couple of times before calling it a leak.
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(100, func() {
			if _, _, err := Solve(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs <= 5 {
			return
		}
	}
	t.Errorf("Solve allocates %v objects per run, want only the plan's five", allocs)
}

// TestDedupeSitesUniqueNoCopy asserts the common case — already-unique
// site lists — returns the input slice itself without allocating.
func TestDedupeSitesUniqueNoCopy(t *testing.T) {
	in := []netgraph.NodeID{7, 3, 0, 12, 5, 64, 129}
	out, err := dedupeSites(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || &out[0] != &in[0] {
		t.Fatalf("unique sites were copied")
	}
	allocs := testing.AllocsPerRun(100, func() { dedupeSites(in) })
	if allocs != 0 {
		t.Errorf("dedupeSites allocates %v objects on unique input, want 0", allocs)
	}
	// Duplicates compact to first-occurrence order.
	dup := append(append([]netgraph.NodeID(nil), in...), in[0], in[2], in[6])
	if out, err = dedupeSites(dup); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("dedupe kept %d of %d unique sites", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("dedupe reordered sites: %v vs %v", out, in)
		}
	}
	// IDs the bitset cannot index are rejected, by both solvers.
	for _, weird := range [][]netgraph.NodeID{{-3, 5}, {5, maxSiteID}} {
		if _, err := dedupeSites(weird); err == nil {
			t.Errorf("dedupeSites(%v) accepted an out-of-range ID", weird)
		}
		p, _, _ := problemFixture(1, true)
		p.Sites = weird
		if _, _, err := Solve(p); err == nil {
			t.Errorf("Solve accepted sites %v", weird)
		}
		if _, _, _, err := NaiveSolve(p); err == nil {
			t.Errorf("NaiveSolve accepted sites %v", weird)
		}
	}
}
