package core

import (
	"testing"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// TestSolveSteadyStateAllocsOnlyPlan pins the pooled DP kernel: once the
// solve scratch is warm, Solve allocates the plan it returns and nothing
// else — one object per join, two per leaf (the node and its input copy).
// The base fixture's plan is a join over two leaves, five objects; the
// composite fixture is a Top-Down view whose three inputs are interleaved
// multi-stream masks, so the realizable-row pass and the on-demand site
// rows run too. Any map, closure escape or per-submask slice that sneaks
// back into the DP shows up as a count above the plan's.
func TestSolveSteadyStateAllocsOnlyPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin is only meaningful without it")
	}
	base, _, _ := problemFixture(1, true)
	composite := base
	composite.Goal = 0b111111
	composite.Rates = make(query.RateTable, 1<<6)
	for s := range composite.Rates {
		composite.Rates[s] = float64(1 + s%5)
	}
	composite.Inputs = nil
	for i, m := range []query.Mask{0b000101, 0b001010, 0b110000} {
		composite.Inputs = append(composite.Inputs, query.Input{Mask: m, Rate: 3, Loc: base.Sites[i%len(base.Sites)]})
	}
	for _, tc := range []struct {
		name string
		p    Problem
		want float64
	}{{"base", base, 5}, {"composite", composite, 8}} {
		p := tc.p
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
			if allocs <= tc.want {
				break
			}
		}
		if allocs > tc.want {
			t.Errorf("%s: Solve allocates %v objects per run, want only the plan's %v", tc.name, allocs, tc.want)
		}
	}
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
