package hnp

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hnp/internal/adapt"
	"hnp/internal/ads"
	"hnp/internal/baseline"
	"hnp/internal/chaos"
	"hnp/internal/core"
	"hnp/internal/cql"
	"hnp/internal/des"
	"hnp/internal/engine"
	"hnp/internal/exp"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// benchCfg keeps figure regeneration fast enough to iterate on while
// preserving each experiment's structure; `cmd/smq` runs the full paper
// scale.
func benchCfg() exp.Config {
	return exp.Config{Seed: 42, Workloads: 2, Queries: 10}
}

func benchFig(b *testing.B, fn func(exp.Config) (*exp.Figure, error)) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := fn(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: joint optimization vs plan-then-
// deploy vs Relaxation on a 64-node network.
func BenchmarkFig2(b *testing.B) { benchFig(b, exp.Fig2) }

// BenchmarkFig5 regenerates Figure 5: Bottom-Up cost across max_cs.
func BenchmarkFig5(b *testing.B) { benchFig(b, exp.Fig5) }

// BenchmarkFig6 regenerates Figure 6: Top-Down cost across max_cs.
func BenchmarkFig6(b *testing.B) { benchFig(b, exp.Fig6) }

// BenchmarkFig7 regenerates Figure 7: sub-optimality and reuse.
func BenchmarkFig7(b *testing.B) { benchFig(b, exp.Fig7) }

// BenchmarkFig8 regenerates Figure 8: comparison with Relaxation and
// In-network placement.
func BenchmarkFig8(b *testing.B) { benchFig(b, exp.Fig8) }

// BenchmarkFig9 regenerates Figure 9: search-space scalability with
// network size.
func BenchmarkFig9(b *testing.B) { benchFig(b, exp.Fig9) }

// BenchmarkFig10 regenerates Figure 10: deployment time vs query size on
// the Emulab-substitute testbed.
func BenchmarkFig10(b *testing.B) { benchFig(b, exp.Fig10) }

// BenchmarkFig11 regenerates Figure 11: cumulative deployed cost on the
// Emulab-substitute testbed, with the runtime cross-check.
func BenchmarkFig11(b *testing.B) { benchFig(b, exp.Fig11) }

// --- per-algorithm planning microbenchmarks -------------------------------

type benchWorld struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	h     *hierarchy.Hierarchy
	w     *workload.Workload
}

func newBenchWorld(b *testing.B, nodes, maxCS int) *benchWorld {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := netgraph.MustTransitStub(nodes, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, maxCS, rng)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(workload.Default(50, 32), nodes, rng)
	if err != nil {
		b.Fatal(err)
	}
	return &benchWorld{g, paths, h, w}
}

// BenchmarkTopDownPlan measures single-query Top-Down planning on a
// 128-node network (max_cs=32), the paper's standard setting.
func BenchmarkTopDownPlan(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.w.Queries[i%len(w.w.Queries)]
		if _, err := core.TopDown(w.h, w.w.Catalog, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBottomUpPlan measures single-query Bottom-Up planning.
func BenchmarkBottomUpPlan(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.w.Queries[i%len(w.w.Queries)]
		if _, err := core.BottomUpOpts(w.h, w.w.Catalog, q, nil, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalPlan measures the exhaustive/DP joint optimum the
// heuristics are judged against.
func BenchmarkOptimalPlan(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.w.Queries[i%len(w.w.Queries)]
		if _, err := core.OptimalOpts(w.g, w.paths, w.w.Catalog, q, nil, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelaxationPlan measures the Relaxation baseline's placement.
func BenchmarkRelaxationPlan(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	rng := rand.New(rand.NewSource(2))
	emb := baseline.Embed(w.g, w.paths, 48, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.w.Queries[i%len(w.w.Queries)]
		if _, err := baseline.Relaxation(w.g, w.paths, emb, w.w.Catalog, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchyBuild measures building the virtual clustering
// hierarchy (max_cs 32), the one-time cost the heuristics amortize, at 128
// nodes and at Fig 9's largest network.
func BenchmarkHierarchyBuild(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := netgraph.MustTransitStub(n, rng)
			paths := g.ShortestPaths(netgraph.MetricCost)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hierarchy.Build(g, paths, 32, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChaosWorldBuild measures what adapt-rateshift's setup_s times:
// chaos.New over the rate-shift worlds of seeds 3-7 (topology, paths,
// hierarchy, workload and engine).
func BenchmarkChaosWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for seed := int64(3); seed <= 7; seed++ {
			if _, err := chaos.New(chaos.RateShiftConfig(seed)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// randSink keeps each generator BenchmarkNewRand makes on the heap, as a
// product call site's is.
var randSink *rand.Rand

// BenchmarkNewRand prices one seeded generator: math/rand's, which every
// world, engine, server and figure sweep made before, and stats.NewRand,
// which draws the same values.
func BenchmarkNewRand(b *testing.B) {
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randSink = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randSink = stats.NewRand(int64(i))
		}
	})
}

// BenchmarkAPSP measures the all-pairs shortest-path snapshot every
// optimizer plans against.
func BenchmarkAPSP(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := netgraph.MustTransitStub(128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPaths(netgraph.MetricCost)
	}
}

// driftChain is the steady state of iflow and chaos path maintenance on
// one drifting link: flip its cost between two values just under the
// endpoints' path distance and repair the standing snapshot over a
// recycled ping-pong pair.
type driftChain struct {
	g          *netgraph.Graph
	l          netgraph.Link
	base       float64
	cur, spare *netgraph.Paths
	flips      int
}

// driftWarmup is enough single-link mutations to carry the graph's delta
// log past its overflow point (2×maxDeltaLog) so the log, the recycle
// pair, and the chain's scratch buffers all reach steady-state capacity
// before the timer starts.
const driftWarmup = 2048

func newDriftChain(b *testing.B, g *netgraph.Graph, l netgraph.Link, base float64, paths *netgraph.Paths) *driftChain {
	d := &driftChain{g: g, l: l, base: base, cur: paths}
	for i := 0; i < driftWarmup; i++ {
		d.drift(b)
	}
	return d
}

// drift reprices the link, refreshes, and reports what the refresh did.
func (d *driftChain) drift(b *testing.B) netgraph.RefreshStats {
	if err := d.g.SetLinkCost(d.l.A, d.l.B, d.base*(0.90+0.05*float64(d.flips%2))); err != nil {
		b.Fatal(err)
	}
	d.flips++
	old := d.cur
	next, stats := d.cur.RefreshFrom(d.g, d.spare)
	d.cur, d.spare = next, old
	return stats
}

// BenchmarkPathsDeltaRefresh measures absorbing a single-link cost drift
// on a 128-node network. "incremental" repairs the standing snapshot with
// RefreshFrom over a recycled ping-pong pair — the steady state of iflow
// and chaos maintenance, pinned at zero allocations by the netgraph
// suite; "full" recomputes all pairs from scratch, which is what every
// drift event cost before delta maintenance. The ns/op gap between the
// two sub-benchmarks is the headline win of incremental maintenance.
func BenchmarkPathsDeltaRefresh(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := netgraph.MustTransitStub(128, rng)
	l, base, err := netgraph.DriftLink(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		d := newDriftChain(b, g, l, base, g.ShortestPaths(netgraph.MetricCost))
		rows := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats := d.drift(b)
			if stats.Mode != netgraph.RefreshIncremental || stats.RowsRecomputed == 0 {
				b.Fatalf("steady-state refresh = %+v, want incremental with rows", stats)
			}
			rows += float64(stats.RowsRecomputed)
		}
		b.ReportMetric(rows/float64(b.N), "rows/op")
	})
	b.Run("full", func(b *testing.B) {
		flip := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
				b.Fatal(err)
			}
			flip++
			g.ShortestPaths(netgraph.MetricCost)
		}
	})
}

// BenchmarkChaosDriftMaintain measures the whole maintenance path one
// chaos link-drift event triggers — path refresh plus hierarchy rebind —
// in both regimes: "delta" repairs the snapshot incrementally and
// re-audits only clusters touched by the changed rows (RebindRows), the
// path chaos and the System facade take; "full" recomputes all pairs
// and re-measures every cluster, the pre-incremental behavior.
func BenchmarkChaosDriftMaintain(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := netgraph.MustTransitStub(128, rng)
	l, base, err := netgraph.DriftLink(g)
	if err != nil {
		b.Fatal(err)
	}
	paths := g.ShortestPaths(netgraph.MetricCost)
	h, err := hierarchy.Build(g, paths, 32, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta", func(b *testing.B) {
		d := newDriftChain(b, g, l, base, paths)
		if err := h.RebindRows(d.cur, nil); err != nil {
			b.Fatal(err)
		}
		// Empty (non-nil) row set: audits nothing, but primes the
		// hierarchy's lazily allocated row-mark scratch.
		if err := h.RebindRows(d.cur, []netgraph.NodeID{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats := d.drift(b)
			if err := h.RebindRows(d.cur, stats.Rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		flip := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
				b.Fatal(err)
			}
			flip++
			if err := h.RebindRows(g.ShortestPaths(netgraph.MetricCost), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- telemetry overhead ----------------------------------------------------

// BenchmarkDeploy measures the System planning path — the paper's
// standard 128-node/max_cs=32 setting — recording into the system's own
// registry, as every System does.
func BenchmarkDeploy(b *testing.B) {
	g := TransitStubNetwork(128, 1)
	sys, err := NewSystem(g, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ids := make([]StreamID, 6)
	for i := range ids {
		ids[i] = sys.AddStream("s", 1+rng.Float64()*50, NodeID(rng.Intn(128)))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			sys.SetSelectivity(ids[i], ids[j], 0.005+0.01*rng.Float64())
		}
	}
	plans := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 3 + i%3
		d, err := sys.Plan(ids[:k], NodeID(i%128), AlgoTopDown)
		if err != nil {
			b.Fatal(err)
		}
		plans += d.PlansConsidered
	}
	// The measured per-query search-space accounting, not the
	// nominal space (see benchSolveK).
	b.ReportMetric(plans/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkDeployCQL measures one PlanCQL + Deploy + Undeploy round of a
// three-way projecting statement whose operators already stand, with and
// without its text standing. prepared-hit keeps a deployment of the very
// text, so every round instantiates the prepared statement; prepared-miss
// keeps one of the same statement spelled with a trailing blank — the same
// query, advertisements and plans under another text — so every round
// parses, rewrites, enters its entry and drops it again.
func BenchmarkDeployCQL(b *testing.B) {
	stmt := pushdownStatements[1]
	for _, mode := range []struct{ name, standing string }{
		{"prepared-miss", stmt + " "}, {"prepared-hit", stmt},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys, sink := newSchemaSystem(b)
			if _, err := deploy(sys)(sys.PlanCQL(mode.standing, sink, AlgoTopDown)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := sys.PlanCQL(stmt, NodeID(i%64), AlgoTopDown)
				if err == nil {
					err = sys.Deploy(d)
				}
				if err != nil {
					b.Fatal(err)
				}
				sys.Undeploy(d)
			}
		})
	}
}

// --- advertisement registry -------------------------------------------------

// adsBenchSizes are the standing-registry sizes the registry benchmarks
// run at: a warm shard of serve-hot, one of serve-standing, and all four.
var adsBenchSizes = []int{64, 1024, 4096}

var adsBenchSink int

// standing is one deployment of a synthesized standing population: a
// query and the placed plan whose operators it advertised.
type standing struct {
	Query *query.Query
	Plan  *query.PlanNode
}

// standingAds fills a fresh registry the way a long-running server's
// fills: left-deep plans of random 4-6-source queries over the given
// number of streams, operators on random nodes, advertised one after the
// other until at least n ads stand. Identical arguments give identical
// registries.
func standingAds(n, streams, nodes int, rng *rand.Rand) (*ads.Registry, []standing) {
	reg := ads.NewRegistry()
	var out []standing
	for id := 1; reg.Len() < n; id++ {
		k := 4 + rng.Intn(3)
		srcs := make([]query.StreamID, k)
		for i, s := range rng.Perm(streams)[:k] {
			srcs[i] = query.StreamID(s)
		}
		q, err := query.NewQuery(id, srcs, netgraph.NodeID(rng.Intn(nodes)))
		if err != nil {
			panic(err) // distinct sources, at most 6: a bug here, not input
		}
		plan := query.Leaf(query.Input{Mask: 1})
		for p := 1; p < k; p++ {
			leaf := query.Leaf(query.Input{Mask: 1 << uint(p)})
			plan = query.Join(plan, leaf, netgraph.NodeID(rng.Intn(nodes)), 1)
		}
		reg.AdvertisePlan(q, plan)
		out = append(out, standing{q, plan})
	}
	return reg, out
}

// BenchmarkAdsInputsFor measures one planner lookup — each standing query
// asks what can feed it, so every lookup matches at least its own
// operators — against registries of growing size. The cost must follow
// the query's sub-masks and matches, not the registry.
func BenchmarkAdsInputsFor(b *testing.B) {
	for _, n := range adsBenchSizes {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			reg, standing := standingAds(n, 24, 128, rand.New(rand.NewSource(7)))
			rt := make(query.RateTable, 1<<6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adsBenchSink += len(reg.InputsFor(standing[i%len(standing)].Query, rt))
			}
		})
	}
}

// BenchmarkAdsRetract measures one undeploy's registry work, paired with
// the re-advertisement that keeps the registry at its size.
func BenchmarkAdsRetract(b *testing.B) {
	for _, n := range adsBenchSizes {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			reg, standing := standingAds(n, 24, 128, rand.New(rand.NewSource(7)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := standing[i%len(standing)]
				adsBenchSink += reg.RetractPlan(d.Query, d.Plan)
				reg.AdvertisePlan(d.Query, d.Plan)
			}
		})
	}
}

// --- engine lifecycle -------------------------------------------------------

// BenchmarkEngineUndeploy measures one lifecycle turn of an Engine with W
// standing deployments over a 128-node transit-stub: the oldest
// deployment is undeployed and the next planned query deployed, FIFO, with
// no tuple flowing. Plans are made up front against no advertisements, so
// every one stands alone and the loop times only the runtime, registry
// and ledger work of the pair; Audit runs after the timer stops. The cost
// should follow what the pair changed, not W. B/deployment is the live
// heap the W standing deployments retain, per deployment, read once after
// setup.
func BenchmarkEngineUndeploy(b *testing.B) {
	for _, w := range []int{256, 2048} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := netgraph.MustTransitStub(128, rng)
			wl, err := workload.Generate(workload.Default(24, 2*w), 128, rng)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := engine.Build(g, g.ShortestPaths(netgraph.MetricCost), wl.Catalog, 32, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.NewEngine(sys, iflow.DefaultConfig(), 1, 1e9)
			deps := make([]engine.Deployment, len(wl.Queries))
			for i, q := range wl.Queries {
				deps[i].Query = q
				if deps[i].Result, err = sys.PlanQuery(q, engine.AlgoTopDown, nil); err != nil {
					b.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, d := range deps[:w] {
				if err := eng.Deploy(d); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Undeploy(deps[i%len(deps)]); err != nil {
					b.Fatal(err)
				}
				if err := eng.Deploy(deps[(i+w)%len(deps)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := eng.Audit(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(w), "B/deployment")
		})
	}
}

// --- ablation benchmarks ---------------------------------------------------

// BenchmarkAblationReuse contrasts Top-Down deployment sequences with and
// without the advertisement registry, isolating the cost of foregoing
// operator reuse (the Figure 7 effect as a microbench).
func BenchmarkAblationReuse(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	for _, mode := range []struct {
		name  string
		reuse bool
	}{{"with-reuse", true}, {"without-reuse", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				var reg *ads.Registry
				if mode.reuse {
					reg = ads.NewRegistry()
				}
				for _, q := range w.w.Queries[:10] {
					res, err := core.TopDown(w.h, w.w.Catalog, q, reg)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cost
					if reg != nil {
						reg.AdvertisePlan(q, res.Plan)
					}
				}
			}
			b.ReportMetric(total/float64(b.N), "cost/seq")
		})
	}
}

// BenchmarkAblationMaxCS sweeps the cluster-size knob for Top-Down,
// exposing the search-space/sub-optimality trade-off as time vs cost.
func BenchmarkAblationMaxCS(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := netgraph.MustTransitStub(128, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	w, err := workload.Generate(workload.Default(50, 16), 128, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, cs := range []int{4, 16, 64} {
		h, err := hierarchy.Build(g, paths, cs, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{4: "max_cs=4", 16: "max_cs=16", 64: "max_cs=64"}[cs], func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				res, err := core.TopDown(h, w.Catalog, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cost
			}
			b.ReportMetric(total/float64(b.N), "cost/query")
		})
	}
}

// BenchmarkAblationEstimates runs Top-Down once with the hierarchy's
// per-level cost estimates (as published) and once against a flat
// single-level hierarchy (exact distances, exhaustive over all nodes),
// quantifying what the hierarchical approximation gives up.
func BenchmarkAblationEstimates(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := netgraph.MustTransitStub(64, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	w, err := workload.Generate(workload.Default(30, 16), 64, rng)
	if err != nil {
		b.Fatal(err)
	}
	hier32, err := hierarchy.Build(g, paths, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := hierarchy.Build(g, paths, 65, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		h    *hierarchy.Hierarchy
	}{{"hierarchical", hier32}, {"flat-exact", flat}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				res, err := core.TopDown(v.h, w.Catalog, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cost
			}
			b.ReportMetric(total/float64(b.N), "cost/query")
		})
	}
}

// solveProblem builds the fixed-seed K-way join Problem over an n-node
// transit-stub network that the BenchmarkSolve* trajectory anchors share.
func solveProblem(b *testing.B, k, n int, seed int64) core.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(n, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	cat := query.NewCatalog(0.01)
	ids := make([]query.StreamID, k)
	for i := range ids {
		ids[i] = cat.Add("s", 1+rng.Float64()*50, netgraph.NodeID(rng.Intn(n)))
	}
	q, err := query.NewQuery(0, ids, netgraph.NodeID(rng.Intn(n)))
	if err != nil {
		b.Fatal(err)
	}
	rt := query.BuildRates(cat, q)
	return core.Problem{
		Inputs: core.BaseInputs(cat, q, rt),
		Sites:  baseline.AllNodes(g),
		Dist:   paths.Dist,
		Rates:  rt,
		Goal:   q.All(),
		Sink:   q.Sink, Deliver: true,
	}
}

// benchSolveK times Solve on the K-way problem over all 32 sites.
func benchSolveK(b *testing.B, k int) {
	prob := solveProblem(b, k, 32, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveK4 measures the pooled flat-buffer DP kernel on a 4-way
// join over all 32 sites — the benchmark-trajectory anchor for the
// in-cluster search (BENCH_planner.json tracks it across perf PRs).
func BenchmarkSolveK4(b *testing.B) { benchSolveK(b, 4) }

// BenchmarkSolveK6 is the 6-way variant: 2^6 submask rows stress the DP
// slabs and the submask enumeration far harder than K=4.
func BenchmarkSolveK6(b *testing.B) { benchSolveK(b, 6) }

// BenchmarkSolveView times Solve on the shape Top-Down hands it inside a
// level-1 cluster: all 32 sites, and three composite inputs — sub-view
// outputs, each located at one of its sources — over K = 6 interleaved
// positions, so only 7 of the goal's 63 sub-masks can be built.
func BenchmarkSolveView(b *testing.B) {
	prob := solveProblem(b, 6, 32, 7)
	base := prob.Inputs
	prob.Inputs = nil
	for _, m := range []query.Mask{0b000101, 0b001010, 0b110000} {
		prob.Inputs = append(prob.Inputs, query.Input{
			Mask: m, Rate: prob.Rates.Rate(m), Loc: base[bits.TrailingZeros32(uint32(m))].Loc,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDP measures the in-cluster joint DP itself across input
// counts — the inner loop of everything.
func BenchmarkSolveDP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := netgraph.MustTransitStub(32, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	for _, k := range []int{3, 5, 7} {
		k := k
		b.Run(map[int]string{3: "k=3", 5: "k=5", 7: "k=7"}[k], func(b *testing.B) {
			cat := query.NewCatalog(0.01)
			ids := make([]query.StreamID, k)
			for i := range ids {
				ids[i] = cat.Add("s", 1+rng.Float64()*50, netgraph.NodeID(rng.Intn(32)))
			}
			q, err := query.NewQuery(0, ids, 5)
			if err != nil {
				b.Fatal(err)
			}
			rt := query.BuildRates(cat, q)
			prob := core.Problem{
				Inputs: core.BaseInputs(cat, q, rt),
				Sites:  baseline.AllNodes(g),
				Dist:   paths.Dist,
				Rates:  rt,
				Goal:   q.All(),
				Sink:   q.Sink, Deliver: true,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- migration benchmarks --------------------------------------------------

// migratePlans builds the fixed-seed K=6 world BenchmarkMigrate and
// BenchmarkAdaptControl/step share: a 32-node transit-stub network,
// six streams, and two left-deep plans differing in a single join
// placement (the third join moves node 7 -> 10).
func migratePlans() (*netgraph.Graph, *query.Catalog, *query.Query, *query.PlanNode, *query.PlanNode) {
	rng := rand.New(rand.NewSource(8))
	g := netgraph.MustTransitStub(32, rng)
	cat := query.NewCatalog(0.01)
	ids := make([]query.StreamID, 6)
	for i := range ids {
		ids[i] = cat.Add("s", 1+rng.Float64()*20, netgraph.NodeID(rng.Intn(32)))
	}
	q, err := query.NewQuery(0, ids, 3)
	if err != nil {
		panic(err)
	}
	rt := query.BuildRates(cat, q)
	leftDeep := func(locs []netgraph.NodeID) *query.PlanNode {
		leaf := func(pos int) *query.PlanNode {
			m := query.Mask(1 << uint(pos))
			return query.Leaf(query.Input{
				Mask: m, Rate: rt.Rate(m), Loc: cat.Stream(ids[pos]).Source, Sig: q.SigOf(m),
			})
		}
		cur := leaf(0)
		for i := 1; i < q.K(); i++ {
			cur = query.Join(cur, leaf(i), locs[i-1], rt.Rate(cur.Mask|query.Mask(1<<uint(i))))
		}
		return cur
	}
	planA := leftDeep([]netgraph.NodeID{5, 6, 7, 8, 9})
	planB := leftDeep([]netgraph.NodeID{5, 6, 10, 8, 9})
	return g, cat, q, planA, planB
}

// BenchmarkMigrate contrasts diff-based plan migration with the teardown
// path it replaces, for a single placement change in a K=6 plan: "delta"
// applies iflow.Runtime.Migrate (one create + one retire, everything else
// kept running in place), "teardown" undeploys and redeploys from scratch
// (every operator down, every operator up). ns/op is local planning
// bookkeeping — the delta path pays for diffing; ops-churned/op is what a
// deployed system pays — operators stopped or started, windows and
// statistics lost with each. The churn gap (~2 vs ~2K ops) is what the
// plan IR + diff machinery buys at adaptation time.
func BenchmarkMigrate(b *testing.B) {
	g, cat, q, planA, planB := migratePlans()
	const until = 1e6
	b.Run("delta", func(b *testing.B) {
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			b.Fatal(err)
		}
		churn := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := planB
			if i%2 == 1 {
				target = planA
			}
			rep, err := rt.Migrate(q, target, cat, until)
			if err != nil {
				b.Fatal(err)
			}
			churn += rep.Delta()
		}
		b.ReportMetric(float64(churn)/float64(b.N), "ops-churned/op")
	})
	b.Run("teardown", func(b *testing.B) {
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			b.Fatal(err)
		}
		churn := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := planB
			if i%2 == 1 {
				target = planA
			}
			torn := rt.NumOperators()
			if err := rt.Undeploy(q.ID); err != nil {
				b.Fatal(err)
			}
			torn -= rt.NumOperators()
			if err := rt.Deploy(q, target, cat, until); err != nil {
				b.Fatal(err)
			}
			churn += torn + rt.NumOperators()
		}
		b.ReportMetric(float64(churn)/float64(b.N), "ops-churned/op")
	})
}

// BenchmarkDataPlane measures the per-tuple path of internal/iflow on the
// internal/des clock — source tick, transfer, event queue, join probe,
// window expiry, sink — with nothing else in the loop: the first K=6
// query of the standard 128-node workload, planned Top-Down, deployed
// once and run past one full join window before the timer starts. The
// runtime records into a registry, as NewEngine binds every engine's, so
// each transfer pays its "iflow.tuples_transferred" and
// "iflow.bytes_cost" updates. One op
// is RunFor(2); ns/tuple and allocs/tuple divide the timed loop by the
// tuples it handed to the transport, so they compare across runs whose
// Poisson draws differ in count.
func BenchmarkDataPlane(b *testing.B) {
	w := newBenchWorld(b, 128, 32)
	var q *query.Query
	for _, c := range w.w.Queries {
		if c.K() == 6 {
			q = c
			break
		}
	}
	if q == nil {
		b.Fatal("workload has no K=6 query")
	}
	res, err := core.TopDown(w.h, w.w.Catalog, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	rt := iflow.New(w.g, iflow.DefaultConfig(), 1)
	rt.BindObs(obs.NewRegistry())
	if err := rt.Deploy(q, res.Plan, w.w.Catalog, 1e12); err != nil {
		b.Fatal(err)
	}
	rt.RunFor(2 * iflow.Window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := rt.TuplesSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.RunFor(2)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	tuples := float64(rt.TuplesSent - sent)
	if tuples == 0 {
		b.Fatal("no tuple sent")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
}

// BenchmarkEventQueue measures internal/des alone at the depth and event
// mix iflow gives it on the rate-shift worlds (counted there at seed 7:
// 56.7 % of events queued for the instant they are created in — same-node
// hand-offs — 17.4 % closures, the rest delayed sends, mean depth at pop
// 66.4; BenchmarkDataPlane's one K=6 query holds the queue near depth 8,
// where its discipline hardly shows). 64 closures re-queue themselves at
// exponential gaps like source taps; each firing sends one message for
// this instant and one delayed, and handling either sends on — one
// hand-off always, a second every eighth time, a delayed one every fourth
// — with a delay of 1/64 of the mean gap, so that little besides the
// ticks waits in the queue. The body counts what it queued and fails if
// the mix is more than 5 points, or the depth more than 20 %, off those
// figures. One op is 10 s of virtual time, ~3,700 events.
func BenchmarkEventQueue(b *testing.B) {
	// msg is iflow's delivery in size and shape; hops is how many times
	// its handling sends on.
	type msg struct {
		sink, op *int
		hops     int
		t        iflow.Tuple
	}
	const (
		tickers = 64
		delay   = 1.0 / tickers
	)
	rng := rand.New(rand.NewSource(1))
	var sim *des.Sim[msg]
	var ticks, instant, delayed, handled, sentOn, depth int
	sim = des.New(func(m msg) {
		depth += sim.Pending()
		handled++
		if m.hops == 0 {
			return
		}
		m.hops--
		sentOn++
		sim.Send(0, m)
		instant++
		if sentOn%8 == 0 {
			sim.Send(0, m)
			instant++
		}
		if sentOn%4 == 0 {
			sim.Send(delay, m)
			delayed++
		}
	})
	var tick func()
	tick = func() {
		depth += sim.Pending()
		ticks++
		m := msg{hops: 1, t: iflow.Tuple{Key: int64(ticks), Size: 100, Born: sim.Now()}}
		sim.Send(0, m)
		sim.Send(delay, m)
		instant++
		delayed++
		sim.Schedule(rng.ExpFloat64(), tick)
	}
	for i := 0; i < tickers; i++ {
		sim.Schedule(rng.ExpFloat64(), tick)
	}
	sim.RunUntil(10)
	ticks, instant, delayed, handled, depth = 0, 0, 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunUntil(sim.Now() + 10)
	}
	b.StopTimer()
	// Events fired and events queued differ only by what is in flight.
	events := float64(ticks + handled)
	queued := float64(ticks + instant + delayed)
	if math.Abs(100*float64(instant)/queued-56.7) > 5 || math.Abs(100*float64(ticks)/queued-17.4) > 5 ||
		math.Abs(float64(depth)/events-66.4) > 0.2*66.4 {
		b.Fatalf("queued %d closures, %d same-instant and %d delayed sends at mean depth %.1f; want 17.4%% / 56.7%% / the rest at 66.4",
			ticks, instant, delayed, float64(depth)/events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
}

// BenchmarkAdaptControl measures the closed-loop re-optimization
// controller. "step" is the per-interval overhead of one control step on
// a live deployment — windowed drift measurement, catalog calibration,
// re-plan, diff, and the marginal byte-gain prediction — with migration
// disabled so the runtime stays fixed and every iteration pays the full
// decision path. "compare" replays the pinned chaos rate-shift seed under
// all three policies and reports the controller's byte totals relative to
// the never-migrate and always-remigrate baselines (below 1.0 means the
// controller wins; these ratios are hardware-independent, so a regression
// is real on any machine).
func BenchmarkAdaptControl(b *testing.B) {
	b.Run("step", func(b *testing.B) {
		g, cat, q, planA, planB := migratePlans()
		const until = 1e9
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			b.Fatal(err)
		}
		cfg := adapt.DefaultConfig()
		cfg.Mode = adapt.ModeNever // full predict path, no runtime mutation
		cfg.DriftThreshold = 1e-9  // Poisson noise clears the drift gate
		ctl := adapt.New(rt, cat, func(*query.Query) (*query.PlanNode, error) {
			return planB, nil
		}, cfg)
		rt.RunFor(5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt.RunFor(1) // advance virtual time so the window is non-empty
			b.StartTimer()
			ctl.Step()
		}
	})
	b.Run("compare", func(b *testing.B) {
		var vsNever, vsAlways, migs float64
		for i := 0; i < b.N; i++ {
			out, err := chaos.CompareAdaptPolicies(chaos.RateShiftConfig(3))
			if err != nil {
				b.Fatal(err)
			}
			never, always, ctl := out[0], out[1], out[2]
			if ctl.Report.Oscillations != 0 {
				b.Fatalf("controller oscillated %d times", ctl.Report.Oscillations)
			}
			vsNever += ctl.Bytes() / never.Bytes()
			vsAlways += ctl.Bytes() / always.Bytes()
			migs += float64(ctl.Report.Adapt.Migrations)
		}
		b.ReportMetric(vsNever/float64(b.N), "bytes-vs-never")
		b.ReportMetric(vsAlways/float64(b.N), "bytes-vs-always")
		b.ReportMetric(migs/float64(b.N), "migrations/op")
	})
}

// BenchmarkLinkCostBatch contrasts a burst of link repricings applied one
// UpdateLinkCost at a time (all-pairs path recompute per link) against one
// batched UpdateLinkCosts call (single recompute at the end) on a 128-node
// network. The batch turns N recomputes into one; chaos link-drift and the
// adaptive controller both reprice in bursts, so this is the win they see.
func BenchmarkLinkCostBatch(b *testing.B) {
	const burst = 8
	rng := rand.New(rand.NewSource(12))
	g := netgraph.MustTransitStub(128, rng)
	links := g.Links()[:burst]
	b.Run("single", func(b *testing.B) {
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		for i := 0; i < b.N; i++ {
			scale := 1.0 + float64(i%2) // alternate so costs never drift off
			for _, l := range links {
				if err := rt.UpdateLinkCost(l.A, l.B, l.Cost*scale); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		batch := make([]iflow.LinkCostUpdate, burst)
		for i := 0; i < b.N; i++ {
			scale := 1.0 + float64(i%2)
			for j, l := range links {
				batch[j] = iflow.LinkCostUpdate{A: l.A, B: l.B, Cost: l.Cost * scale}
			}
			if err := rt.UpdateLinkCosts(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLeftDeep contrasts bushy and left-deep plan spaces for
// the phased baseline: the same optimal placement over trees from the two
// search spaces.
func BenchmarkAblationLeftDeep(b *testing.B) {
	w := newBenchWorld(b, 64, 16)
	sites := baseline.AllNodes(w.g)
	for _, shape := range []string{"bushy", "left-deep"} {
		shape := shape
		b.Run(shape, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				q := w.w.Queries[i%len(w.w.Queries)]
				rt := query.BuildRates(w.w.Catalog, q)
				ins := core.BaseInputs(w.w.Catalog, q, rt)
				var tree *query.PlanNode
				var err error
				if shape == "bushy" {
					tree, err = baseline.SelectivityTree(ins, rt, q.All())
				} else {
					tree, err = baseline.SelectivityTreeLeftDeep(ins, rt, q.All())
				}
				if err != nil {
					b.Fatal(err)
				}
				_, cost, err := baseline.PlaceFixedTree(tree, q, sites, w.paths.Dist, q.Sink, nil)
				if err != nil {
					b.Fatal(err)
				}
				total += cost
			}
			b.ReportMetric(total/float64(b.N), "cost/query")
		})
	}
}

// BenchmarkAblationTopology measures Top-Down planning cost and quality
// across network families: the transit-stub model of the paper, a grid,
// and a scale-free overlay.
func BenchmarkAblationTopology(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	costs := netgraph.CostRange{Lo: 1, Hi: 10}
	delay := netgraph.CostRange{Lo: 0.001, Hi: 0.06}
	tops := []struct {
		name string
		g    *netgraph.Graph
	}{
		{"transit-stub", netgraph.MustTransitStub(128, rng)},
		{"grid", netgraph.Grid(8, 16, costs, delay, rng)},
		{"scale-free", netgraph.ScaleFree(128, 2, costs, delay, rng)},
	}
	for _, tp := range tops {
		tp := tp
		b.Run(tp.name, func(b *testing.B) {
			paths := tp.g.ShortestPaths(netgraph.MetricCost)
			h, err := hierarchy.Build(tp.g, paths, 32, rng)
			if err != nil {
				b.Fatal(err)
			}
			w, err := workload.Generate(workload.Default(10, 16), 128, rng)
			if err != nil {
				b.Fatal(err)
			}
			subopt := 0.0
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				td, err := core.TopDown(h, w.Catalog, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := core.OptimalOpts(tp.g, paths, w.Catalog, q, nil, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				subopt += td.Cost / opt.Cost
			}
			b.ReportMetric(subopt/float64(b.N), "td/opt")
		})
	}
}

// BenchmarkRewritePipeline measures the logical optimizer pipeline alone
// — constant folding, predicate pushdown and column pruning, statements
// pre-parsed — over the figure-workload statement grid.
// BenchmarkRewritePushdown measures the same statements end to end.
func BenchmarkRewritePipeline(b *testing.B) {
	sys, sink := newSchemaSystem(b)
	var sts []*cql.Statement
	for _, s := range pushdownStatements {
		st, err := cql.Parse(sys.Catalog, s)
		if err != nil {
			b.Fatal(err)
		}
		sts = append(sts, st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range sts {
			q, err := st.Query(i, sink)
			if err != nil {
				b.Fatal(err)
			}
			out := rewrite.Apply(sys.Catalog, q, st.Pushdown())
			if out.BytesAfter > out.BytesBefore {
				b.Fatal("bytes grew")
			}
		}
	}
}

// BenchmarkRewritePushdown measures the figure workload's CQL statements
// end to end — parse, logical optimizer pipeline and Top-Down planning
// over schema-bearing 100-byte streams. rewrite-bytes-frac is their
// planned bytes-on-wire relative to planning the parsed statements
// without the pipeline (seed-pinned; below 1.0 means pushdown wins).
func BenchmarkRewritePushdown(b *testing.B) {
	sys, sink := newSchemaSystem(b)
	optimized := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimized = 0
		for _, s := range pushdownStatements {
			d, err := sys.PlanCQL(s, sink, AlgoTopDown)
			if err != nil {
				b.Fatal(err)
			}
			optimized += d.Plan.PlannedBytes(sink)
		}
	}
	b.StopTimer()
	raw := 0.0
	for _, s := range pushdownStatements {
		raw += planUnoptimized(b, sys, s, sink, AlgoTopDown).Plan.PlannedBytes(sink)
	}
	b.ReportMetric(optimized/raw, "rewrite-bytes-frac")
}

// flightAudit stands for a prepared statement's rewrite audit, one string
// shared by all its deploys.
var flightAudit = strings.Repeat("push-predicates: stream-1.attr0 < 0.5; ", 4)

// flightServe emits what a served deploy records in its shard's flight
// recorder: the rewrite audit, plan_started naming the planner,
// plan_chosen with cost and search space, all stamped at emission.
func flightServe(tr *obs.Tracer, q int) {
	tr.Emit(obs.Event{Kind: obs.KindRewriteApplied, Trace: obs.QueryTrace(q), Query: q, Node: obs.NoID,
		Value: 1843.5, Aux: 2, Detail: flightAudit})
	started := tr.Emit(obs.Event{Kind: obs.KindPlanStarted, Trace: obs.QueryTrace(q), Query: q, Node: q % 48,
		Detail: "top-down"})
	tr.Emit(obs.Event{Kind: obs.KindPlanChosen, Parent: started, Trace: obs.QueryTrace(q), Query: q, Node: q % 31,
		Value: 80.375 + float64(q%17), Aux: 1512})
}

// newServedTracer returns an armed default-size flight recorder filled
// three times over by flightServe, and the next query ID.
func newServedTracer() (*obs.Tracer, int) {
	tr := obs.NewTracer(0)
	tr.Enable()
	q := 1 << 17
	for ; tr.Len()+int(tr.Dropped()) < 3*obs.DefaultFlightSize; q++ {
		flightServe(tr, q)
	}
	return tr, q
}

// BenchmarkFlightEmit measures the armed flight recorder in steady state:
// one op is the three events of one served deploy. B/event is the live
// heap a full recorder of that mix retains per held event.
func BenchmarkFlightEmit(b *testing.B) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, q := newServedTracer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc-before.HeapAlloc) / float64(tr.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flightServe(tr, q+i)
	}
	b.ReportMetric(held, "B/event")
}

// BenchmarkFlightSnapshot measures reading a full default-size recorder
// (4,096 events of the serving mix) back as Events, as /flight does.
func BenchmarkFlightSnapshot(b *testing.B) {
	tr, _ := newServedTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Snapshot()) != obs.DefaultFlightSize {
			b.Fatal("snapshot does not hold a full recorder")
		}
	}
}
