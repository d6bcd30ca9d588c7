package netgraph

import (
	"math/rand"
	"runtime"
	"testing"
)

// forceParallel raises GOMAXPROCS so the worker pool actually fans out
// even on single-core CI machines, restoring the old value on cleanup.
func forceParallel(t testing.TB) {
	t.Helper()
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func pathsEqual(t *testing.T, topo string, a, b *Paths) {
	t.Helper()
	if a.n != b.n || a.metric != b.metric || a.version != b.version {
		t.Fatalf("%s: snapshot headers differ: %+v vs %+v", topo, a, b)
	}
	for v := 0; v < a.n; v++ {
		for u := 0; u < a.n; u++ {
			if a.dist[v][u] != b.dist[v][u] {
				t.Fatalf("%s: dist[%d][%d] = %g (parallel) vs %g (serial)",
					topo, v, u, a.dist[v][u], b.dist[v][u])
			}
			if a.next[v][u] != b.next[v][u] {
				t.Fatalf("%s: next[%d][%d] = %d (parallel) vs %d (serial)",
					topo, v, u, a.next[v][u], b.next[v][u])
			}
		}
	}
}

// TestShortestPathsParallelMatchesSerial asserts the parallel all-pairs
// computation is bit-identical to the serial reference on every topology
// family, under both metrics.
func TestShortestPathsParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(21))
	costs := CostRange{Lo: 1, Hi: 10}
	delay := CostRange{Lo: 0.001, Hi: 0.06}
	topos := []struct {
		name string
		g    *Graph
	}{
		{"transit-stub", MustTransitStub(128, rng)},
		{"grid", Grid(8, 16, costs, delay, rng)},
		{"scale-free", ScaleFree(128, 2, costs, delay, rng)},
	}
	for _, tp := range topos {
		for _, m := range []Metric{MetricCost, MetricDelay} {
			pathsEqual(t, tp.name+"/"+m.String(), tp.g.ShortestPaths(m), tp.g.shortestPathsSerial(m))
		}
	}
}

func TestStaleFor(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := MustTransitStub(32, rng)
	p := g.ShortestPaths(MetricCost)
	if p.StaleFor(g) {
		t.Fatal("fresh snapshot reported stale")
	}
	links := g.Links()
	if err := g.SetLinkCost(links[0].A, links[0].B, links[0].Cost*2); err != nil {
		t.Fatal(err)
	}
	if !p.StaleFor(g) {
		t.Fatal("snapshot not stale after SetLinkCost")
	}
	if g.ShortestPaths(MetricCost).StaleFor(g) {
		t.Fatal("recomputed snapshot reported stale")
	}
	if !p.StaleFor(New(5)) {
		t.Fatal("snapshot of one graph not stale for a different-sized graph")
	}
}

func bench1024(b *testing.B) *Graph {
	b.Helper()
	return MustTransitStub(1024, rand.New(rand.NewSource(23)))
}

// BenchmarkShortestPathsParallel measures the worker-pool all-pairs
// snapshot on the paper's largest (1024-node) scalability topology.
func BenchmarkShortestPathsParallel(b *testing.B) {
	forceParallel(b)
	g := bench1024(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPaths(MetricCost)
	}
}

// BenchmarkShortestPathsSerial is the single-threaded baseline the
// parallel speedup is judged against.
func BenchmarkShortestPathsSerial(b *testing.B) {
	g := bench1024(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.shortestPathsSerial(MetricCost)
	}
}

// shortestPathsSerial is the serial all-pairs computation, kept as the
// reference the parallel ShortestPaths is tested and benchmarked against.
func (g *Graph) shortestPathsSerial(m Metric) *Paths {
	p := newPaths(m, g.version, len(g.adj))
	g.shortestPathsInto(p)
	return p
}
