package netgraph

import (
	"math/rand"
	"testing"
)

// TestSetLinkCostNoop pins the no-op fast path: setting a link to its
// current cost (or delay) must not bump the version, so every cached path
// snapshot stays valid and no downstream rebind is triggered.
func TestSetLinkCostNoop(t *testing.T) {
	g := New(3)
	g.MustAddLink(0, 1, 2.5, 0.01)
	g.MustAddLink(1, 2, 4, 0.02)
	p := g.ShortestPaths(MetricCost)
	v := g.Version()
	if err := g.SetLinkCost(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v {
		t.Errorf("same-cost SetLinkCost bumped version %d -> %d", v, g.Version())
	}
	if err := g.SetLinkDelay(1, 2, 0.02); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v {
		t.Errorf("same-delay SetLinkDelay bumped version %d -> %d", v, g.Version())
	}
	if p.StaleFor(g) {
		t.Error("snapshot went stale after no-op mutations")
	}
	if err := g.SetLinkCost(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v+1 {
		t.Errorf("real mutation should bump version once: %d -> %d", v, g.Version())
	}
}

// TestDeltaLog exercises the bounded mutation log directly: coverage,
// horizon fallback, and truncation on structural change.
func TestDeltaLog(t *testing.T) {
	g := New(3)
	g.MustAddLink(0, 1, 1, 0.01)
	v0 := g.Version()
	if err := g.SetLinkCost(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLinkDelay(0, 1, 0.03); err != nil {
		t.Fatal(err)
	}
	ds, ok := g.deltasSince(v0)
	if !ok || len(ds) != 2 {
		t.Fatalf("deltasSince(%d) = %v, %v; want 2 deltas", v0, ds, ok)
	}
	if ds[0] != (EdgeDelta{A: 0, B: 1, Metric: MetricCost, Old: 1, New: 2}) {
		t.Errorf("first delta = %+v", ds[0])
	}
	if ds[1] != (EdgeDelta{A: 0, B: 1, Metric: MetricDelay, Old: 0.01, New: 0.03}) {
		t.Errorf("second delta = %+v", ds[1])
	}
	if ds, ok := g.deltasSince(g.Version()); !ok || len(ds) != 0 {
		t.Errorf("deltasSince(current) = %v, %v; want empty, true", ds, ok)
	}
	// Structural mutation clears the log.
	g.MustAddLink(1, 2, 1, 0.01)
	if _, ok := g.deltasSince(v0); ok {
		t.Error("log should not cover a span containing AddLink")
	}
	if ds, ok := g.deltasSince(g.Version()); !ok || len(ds) != 0 {
		t.Errorf("post-AddLink deltasSince(current) = %v, %v", ds, ok)
	}
	// Overflow drops the oldest half but keeps recent coverage.
	vMid := 0
	for i := 0; i < maxDeltaLog+10; i++ {
		if i == maxDeltaLog/2 {
			vMid = g.Version()
		}
		if err := g.SetLinkCost(0, 1, float64(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := g.deltasSince(vMid); ok {
		t.Error("log should have dropped its oldest half")
	}
	if ds, ok := g.deltasSince(g.Version() - 10); !ok || len(ds) != 10 {
		t.Errorf("recent span not covered after overflow: %d deltas, ok=%v", len(ds), ok)
	}
}

// refreshChain ping-pongs a snapshot chain the way runtime consumers do.
type refreshChain struct {
	cur, spare *Paths
}

func (c *refreshChain) refresh(t *testing.T, g *Graph) RefreshStats {
	t.Helper()
	old := c.cur
	out, stats := c.cur.RefreshFrom(g, c.spare)
	if out != old {
		c.cur, c.spare = out, old
	} else if stats.Mode != RefreshNoop {
		t.Fatalf("RefreshFrom returned the input snapshot with mode %v", stats.Mode)
	}
	return stats
}

// requireIdentical asserts a snapshot is bit-identical to a fresh
// ShortestPaths under the same metric.
func requireIdentical(t *testing.T, label string, g *Graph, got *Paths) {
	t.Helper()
	pathsEqual(t, label, got, g.ShortestPaths(got.Metric()))
}

// TestRefreshFromSingleEdge covers the basic incremental cases: noop,
// cost-only churn leaving the delay snapshot's rows untouched, and
// bit-identical repair after increases, decreases, and reverts.
func TestRefreshFromSingleEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := MustTransitStub(64, rng)
	cost := refreshChain{cur: g.ShortestPaths(MetricCost)}
	delay := refreshChain{cur: g.ShortestPaths(MetricDelay)}

	if stats := cost.refresh(t, g); stats.Mode != RefreshNoop {
		t.Fatalf("refresh of current snapshot: mode %v, want noop", stats.Mode)
	}

	links := g.Links()
	l := links[len(links)/2]
	for _, factor := range []float64{4, 0.1, 1} { // raise, cut, revert
		if err := g.SetLinkCost(l.A, l.B, l.Cost*factor); err != nil {
			t.Fatal(err)
		}
		cs := cost.refresh(t, g)
		if cs.Mode != RefreshIncremental {
			t.Fatalf("factor %g: cost refresh mode %v, want incremental", factor, cs.Mode)
		}
		requireIdentical(t, "cost", g, cost.cur)

		// Cost churn never moves delay-metric paths: the delay refresh
		// must see zero changed edges and recompute zero rows.
		ds := delay.refresh(t, g)
		if ds.Mode != RefreshIncremental || ds.EdgesChanged != 0 || ds.RowsRecomputed != 0 {
			t.Fatalf("factor %g: delay refresh = %+v, want incremental/0/0", factor, ds)
		}
		requireIdentical(t, "delay", g, delay.cur)
	}
}

// TestRefreshFromFallbacks pins the full-recompute escape hatches: log
// horizon exhaustion, structural change, and the affected-fraction
// threshold.
func TestRefreshFromFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := MustTransitStub(32, rng)
	links := g.Links()

	// Snapshot older than the log horizon.
	old := g.ShortestPaths(MetricCost)
	for i := 0; i < maxDeltaLog+8; i++ {
		l := links[i%len(links)]
		if err := g.SetLinkCost(l.A, l.B, 1+float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	out, stats := old.RefreshFrom(g, nil)
	if stats.Mode != RefreshFull {
		t.Errorf("beyond-horizon refresh mode %v, want full", stats.Mode)
	}
	requireIdentical(t, "horizon", g, out)

	// Structural change truncates the log.
	cur := g.ShortestPaths(MetricCost)
	var a, b NodeID
found:
	for a = 0; a < NodeID(g.NumNodes()); a++ {
		for b = a + 2; b < NodeID(g.NumNodes()); b++ {
			if !g.HasLink(a, b) {
				break found
			}
		}
	}
	g.MustAddLink(a, b, 2, 0.01)
	out, stats = cur.RefreshFrom(g, nil)
	if stats.Mode != RefreshFull {
		t.Errorf("post-AddLink refresh mode %v, want full", stats.Mode)
	}
	requireIdentical(t, "structural", g, out)

	// A star topology: changing a spoke's cost moves every row, tripping
	// the affected-fraction threshold.
	star := Star(16, 0.01)
	sp := star.ShortestPaths(MetricCost)
	c0, _ := star.LinkCost(0, 1)
	if err := star.SetLinkCost(0, 1, c0*50); err != nil {
		t.Fatal(err)
	}
	out, stats = sp.RefreshFrom(star, nil)
	if stats.Mode != RefreshFull {
		t.Errorf("star hub churn refresh mode %v, want full (threshold)", stats.Mode)
	}
	requireIdentical(t, "threshold", star, out)
}

// mutateRandom applies one randomly chosen mutation (cost up, cost down,
// revert to a previously seen value, delay change, no-op, or a batch of
// several) to the graph and returns a short description for failure
// messages.
func mutateRandom(t testing.TB, g *Graph, links []Link, rng *rand.Rand) string {
	t.Helper()
	l := links[rng.Intn(len(links))]
	cur, _ := g.LinkCost(l.A, l.B)
	var err error
	desc := ""
	switch k := rng.Intn(6); k {
	case 0:
		desc = "cost-up"
		err = g.SetLinkCost(l.A, l.B, cur*(1+rng.Float64()*3))
	case 1:
		desc = "cost-down"
		err = g.SetLinkCost(l.A, l.B, cur*(0.1+rng.Float64()*0.8))
	case 2:
		desc = "cost-revert"
		err = g.SetLinkCost(l.A, l.B, l.Cost) // original generator cost
	case 3:
		desc = "delay-change"
		err = g.SetLinkDelay(l.A, l.B, 0.001+rng.Float64()*0.05)
	case 4:
		desc = "noop"
		err = g.SetLinkCost(l.A, l.B, cur)
	case 5:
		desc = "batch"
		for i := 0; i < 2+rng.Intn(6); i++ {
			bl := links[rng.Intn(len(links))]
			if err = g.SetLinkCost(bl.A, bl.B, 0.2+rng.Float64()*9); err != nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatalf("mutation %s: %v", desc, err)
	}
	return desc
}

// TestRefreshFromProperty is the bit-identical property test demanded by
// the tentpole: across many seeds and topology families, random mutation
// sequences (cost up/down/revert, delay churn, no-ops, batches) followed
// by delta refresh must reproduce exactly what a fresh ShortestPaths
// computes, under both metrics, with ping-ponged recycled slabs.
func TestRefreshFromProperty(t *testing.T) {
	costs := CostRange{Lo: 1, Hi: 10}
	delays := CostRange{Lo: 0.001, Hi: 0.06}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var g *Graph
		switch seed % 3 {
		case 0:
			g = MustTransitStub(64, rng)
		case 1:
			g = Grid(6, 9, costs, delays, rng)
		default:
			g = ScaleFree(56, 2, costs, delays, rng)
		}
		links := g.Links()
		cost := refreshChain{cur: g.ShortestPaths(MetricCost)}
		delay := refreshChain{cur: g.ShortestPaths(MetricDelay)}
		for step := 0; step < 40; step++ {
			desc := mutateRandom(t, g, links, rng)
			// Refresh the two chains on different cadences so some
			// refreshes span multi-mutation windows.
			if step%3 == 0 || desc == "batch" {
				cost.refresh(t, g)
				requireIdentical(t, desc+"/cost", g, cost.cur)
				delay.refresh(t, g)
				requireIdentical(t, desc+"/delay", g, delay.cur)
			}
		}
		cost.refresh(t, g)
		requireIdentical(t, "final/cost", g, cost.cur)
		delay.refresh(t, g)
		requireIdentical(t, "final/delay", g, delay.cur)
	}
}

// FuzzRefreshBitIdentical drives arbitrary mutation scripts against a
// seed-derived topology and cross-checks delta repair against the full
// recompute. Each script byte pair selects a link and a mutation.
func FuzzRefreshBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), []byte{255, 0, 255, 0, 17, 17, 17})
	f.Add(int64(3), []byte{9, 200, 9, 200, 9, 200})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		g := MustTransitStub(32, rng)
		links := g.Links()
		cost := refreshChain{cur: g.ShortestPaths(MetricCost)}
		delay := refreshChain{cur: g.ShortestPaths(MetricDelay)}
		for i := 0; i+1 < len(script); i += 2 {
			l := links[int(script[i])%len(links)]
			op := script[i+1]
			var err error
			switch op % 4 {
			case 0:
				err = g.SetLinkCost(l.A, l.B, float64(op)/16+0.5)
			case 1:
				err = g.SetLinkCost(l.A, l.B, l.Cost) // revert
			case 2:
				err = g.SetLinkDelay(l.A, l.B, float64(op)/4096)
			case 3:
				cur, _ := g.LinkCost(l.A, l.B)
				err = g.SetLinkCost(l.A, l.B, cur) // no-op
			}
			if err != nil {
				t.Fatal(err)
			}
			if op%3 == 0 {
				cost.refresh(t, g)
				requireIdentical(t, "fuzz/cost", g, cost.cur)
			}
		}
		cost.refresh(t, g)
		requireIdentical(t, "fuzz/cost", g, cost.cur)
		delay.refresh(t, g)
		requireIdentical(t, "fuzz/delay", g, delay.cur)
	})
}

// TestRefreshFromAllocFree pins the steady-state incremental refresh at
// zero heap allocations: with a primed ping-pong pair and a warmed
// mutation log, repairing a single-edge drift must reuse the recycled
// slabs and the chain's scratch without touching the allocator.
func TestRefreshFromAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := MustTransitStub(128, rng)
	l, base, err := DriftLink(g)
	if err != nil {
		t.Fatal(err)
	}
	chain := refreshChain{cur: g.ShortestPaths(MetricCost)}

	// Warm up: grow the mutation log to its steady-state capacity and
	// prime the recycle pair plus the chain's scratch buffers.
	for i := 0; i < maxDeltaLog*2; i++ {
		if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(i%2))); err != nil {
			t.Fatal(err)
		}
		chain.refresh(t, g)
	}

	flip := 1 // warmup ended on the odd-parity cost; keep alternating
	allocs := testing.AllocsPerRun(100, func() {
		flip++
		if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
			t.Fatal(err)
		}
		old := chain.cur
		out, stats := chain.cur.RefreshFrom(g, chain.spare)
		if stats.Mode != RefreshIncremental || stats.RowsRecomputed == 0 {
			t.Fatalf("steady-state refresh = %+v, want incremental with rows", stats)
		}
		chain.cur, chain.spare = out, old
	})
	if allocs != 0 {
		t.Errorf("steady-state incremental refresh allocates %v objects per run, want 0", allocs)
	}
	requireIdentical(t, "alloc-free", g, chain.cur)
}
