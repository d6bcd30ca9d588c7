// Command benchjson runs the repo's fixed-seed benchmarks and emits a
// machine-readable trajectory file (see internal/benchfmt), the record
// this and future perf PRs are tracked against. It has two modes:
//
// Planner mode (default) runs the planner hot-path benchmarks and writes
// BENCH_planner.json. The workloads are seeded identically on every run
// (and identical to the corresponding go-test benchmarks:
// BenchmarkSolveK4/K6, BenchmarkDeploy, BenchmarkAPSP,
// BenchmarkPathsDeltaRefresh, BenchmarkChaosDriftMaintain,
// BenchmarkAdsInputsFor, BenchmarkAdsRetract, BenchmarkMigrate,
// BenchmarkAdaptControl), so the measured code path is
// reproducible; only the wall-clock figures move with the hardware. CI
// runs it with short iterations and uploads the artifact:
//
//	go run ./cmd/benchjson -benchtime 10x -o BENCH_planner.json
//
// Serving mode (-serving) runs the query-serving load scenarios instead
// (internal/serve.BenchScenarios): each boots a sharded in-process smqd,
// replays a seed-pinned synthesized trace through the ReqBench-style
// harness over real HTTP, and records p50/p95/p99 plan latency,
// deploys/sec and admission rejections into BENCH_serving.json:
//
//	go run ./cmd/benchjson -serving -o BENCH_serving.json
//
// With -compare the fresh run is diffed against a committed baseline and
// the process exits non-zero on regression — more than 25% ns/op or
// serving p95/p99 (tune with -threshold) or ANY allocs/op increase:
//
//	go run ./cmd/benchjson -benchtime 100x -compare BENCH_planner.json
//	go run ./cmd/benchjson -serving -compare BENCH_serving.json
//
// Compare two files with the trajectory in mind: ns_per_op, the serving
// quantiles and plans_per_sec are hardware-relative, allocs_per_op and
// bytes_per_op are not — an allocs/op regression is a real regression on
// any machine. That asymmetry is why the ns/op gate carries a generous
// tolerance while the allocs/op gate carries none.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hnp"
	"hnp/internal/adapt"
	"hnp/internal/baseline"
	"hnp/internal/benchfmt"
	"hnp/internal/chaos"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
	"hnp/internal/serve"
	"hnp/internal/workload"
)

const seed = 7

// adsSink keeps the registry benchmarks' results live.
var adsSink int

// solveProblem mirrors the fixture of BenchmarkSolveK4/K6 in bench_test.go.
func solveProblem(k, n int) core.Problem {
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
		panic(err)
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

// migratePlans mirrors the fixture of BenchmarkMigrate in bench_test.go:
// a 32-node network, a K=6 left-deep query, and two plans differing in a
// single join placement (the third join moves node 7 -> 10).
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

// driftLink mirrors bench_test.go's benchDriftLink: probe every link with
// a mild wiggle to just under its endpoints' path distance, refresh a
// throwaway snapshot, revert (reverts coalesce out of the delta log), and
// keep the link an incremental refresh absorbs with the fewest recomputed
// rows. Leaf links legitimately force full recomputes and are skipped.
func driftLink(g *netgraph.Graph) (netgraph.Link, float64) {
	fresh := g.ShortestPaths(netgraph.MetricCost)
	n := g.NumNodes()
	var best netgraph.Link
	bestBase, bestRows := 0.0, n
	set := func(a, b netgraph.NodeID, c float64) {
		if err := g.SetLinkCost(a, b, c); err != nil {
			panic(err)
		}
	}
	for _, cand := range g.Links() {
		orig, _ := g.LinkCost(cand.A, cand.B)
		d := fresh.Dist(cand.A, cand.B)
		set(cand.A, cand.B, d*0.95)
		_, s1 := fresh.RefreshFrom(g, nil)
		set(cand.A, cand.B, d*0.90)
		_, s2 := fresh.RefreshFrom(g, nil)
		set(cand.A, cand.B, orig)
		rows := s1.RowsRecomputed
		if s2.RowsRecomputed > rows {
			rows = s2.RowsRecomputed
		}
		if s1.Mode == netgraph.RefreshIncremental && s2.Mode == netgraph.RefreshIncremental &&
			s1.RowsRecomputed > 0 && s2.RowsRecomputed > 0 && rows < bestRows {
			best, bestBase, bestRows = cand, d, rows
		}
	}
	if bestRows > n/8 {
		panic(fmt.Sprintf("no link with a small drift blast radius (best repairs %d/%d rows)", bestRows, n))
	}
	return best, bestBase
}

// driftWarmup matches bench_test.go: enough single-link mutations to carry
// the delta log past its overflow point so log, recycle pair and scratch
// reach steady-state capacity before the timer starts.
const driftWarmup = 2048

// rewriteWorkload is the figure workload with attribute schemas declared:
// three 100-byte streams whose wide blob columns (MANIFEST, RADAR,
// PASSENGER) the optimizer pipeline prunes, plus the selective/projecting
// statement grid planned against them (mirrors the root pushdown tests).
func rewriteWorkload() (*hnp.System, hnp.NodeID, []string) {
	g := hnp.TransitStubNetwork(64, 3)
	sys, err := hnp.NewSystem(g, 8, 3)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fl := sys.AddStream("FLIGHTS", 40, 17)
	we := sys.AddStream("WEATHER", 25, 41)
	ck := sys.AddStream("CHECKINS", 30, 55)
	sys.SetSelectivity(fl, we, 0.01)
	sys.SetSelectivity(fl, ck, 0.02)
	sys.SetSelectivity(we, ck, 0.005)
	sys.SetSchema(fl, hnp.Schema{
		{Name: "num", Width: 8}, {Name: "status", Width: 16},
		{Name: "origin", Width: 12}, {Name: "manifest", Width: 64},
	})
	sys.SetSchema(we, hnp.Schema{
		{Name: "city", Width: 8}, {Name: "temp", Width: 8}, {Name: "radar", Width: 84},
	})
	sys.SetSchema(ck, hnp.Schema{
		{Name: "flight", Width: 8}, {Name: "status", Width: 16}, {Name: "passenger", Width: 76},
	})
	stmts := []string{
		`SELECT FLIGHTS.STATUS, WEATHER.TEMP FROM FLIGHTS, WEATHER
		 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.STATUS > 0.8`,
		`SELECT FLIGHTS.NUM, CHECKINS.STATUS FROM FLIGHTS, WEATHER, CHECKINS
		 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.NUM = CHECKINS.FLIGHT
		   AND CHECKINS.STATUS < 0.4`,
		`SELECT WEATHER.TEMP FROM FLIGHTS, WEATHER
		 WHERE FLIGHTS.NUM = WEATHER.CITY`,
		`SELECT * FROM FLIGHTS, WEATHER
		 WHERE FLIGHTS.NUM = WEATHER.CITY AND FLIGHTS.STATUS > 0.9`,
	}
	return sys, 9, stmts
}

// measure runs fn under testing.Benchmark and records it. plansPerOp, when
// non-zero, is the number of plan candidates one op examines.
func measure(out *[]benchfmt.Result, name string, plansPerOp float64, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	br := benchfmt.Result{
		Name:       name,
		Iterations: r.N,
		NsPerOp:    r.NsPerOp(),
		AllocsOp:   r.AllocsPerOp(),
		BytesOp:    r.AllocedBytesPerOp(),
	}
	if plansPerOp > 0 && r.T > 0 {
		br.PlansPerSec = plansPerOp * float64(r.N) / r.T.Seconds()
	}
	*out = append(*out, br)
	fmt.Fprintf(os.Stderr, "%-12s %12d ns/op %8d allocs/op %10d B/op\n",
		name, br.NsPerOp, br.AllocsOp, br.BytesOp)
}

func main() {
	var (
		benchtime = flag.String("benchtime", "1s", "per-benchmark budget (testing syntax: 1s, 100x, ...); planner mode only")
		outPath   = flag.String("o", "", "output file ('-' for stdout; default BENCH_planner.json, or BENCH_serving.json with -serving)")
		compare   = flag.String("compare", "", "baseline trajectory to diff this run against; exit 3 on regression")
		threshold = flag.Float64("threshold", 0.25, "ns/op (and serving p95/p99) regression tolerance for -compare, as a fraction (allocs/op tolerates nothing)")
		serving   = flag.Bool("serving", false, "run the query-serving load scenarios instead of the planner benchmarks")
	)
	testing.Init()
	flag.Parse()
	if *outPath == "" {
		if *serving {
			*outPath = "BENCH_serving.json"
		} else {
			*outPath = "BENCH_planner.json"
		}
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad -benchtime: %v\n", err)
		os.Exit(1)
	}

	traj := benchfmt.New("cmd/benchjson", seed, *benchtime)
	if *serving {
		traj.Tool = "cmd/benchjson -serving"
		traj.Benchtime = "trace"
		for _, sc := range serve.BenchScenarios(seed) {
			res, rep, err := serve.RunBench(sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", sc.Name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%-12s %s\n", sc.Name, rep)
			traj.Benchmarks = append(traj.Benchmarks, res)
		}
		finish(traj, *outPath, *compare, *threshold)
		return
	}

	// SolveK4/K6: the in-cluster DP kernel over all 32 sites.
	for _, k := range []int{4, 6} {
		prob := solveProblem(k, 32)
		plans := core.SolveWork(k, len(prob.Sites))
		measure(&traj.Benchmarks, fmt.Sprintf("SolveK%d", k), plans, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// SolveCostK6: the zero-alloc scoring entry point on the same problem.
	{
		prob := solveProblem(6, 32)
		plans := core.SolveWork(6, len(prob.Sites))
		measure(&traj.Benchmarks, "SolveCostK6", plans, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveCost(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Paths: the all-pairs snapshot every optimizer plans against.
	{
		rng := rand.New(rand.NewSource(seed))
		g := netgraph.MustTransitStub(128, rng)
		measure(&traj.Benchmarks, "Paths128", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.ShortestPaths(netgraph.MetricCost)
			}
		})
	}

	// PathsDeltaRefresh: absorbing a single-link cost drift by delta
	// repair of the standing snapshot over a recycled ping-pong pair —
	// the steady state of iflow/chaos maintenance (mirrors
	// BenchmarkPathsDeltaRefresh/incremental; Paths128 above is the full
	// recompute every drift event used to cost). Zero allocs_per_op is a
	// hardware-independent invariant here: steady-state drift must be
	// absorbed without touching the allocator, and -compare gates it.
	{
		rng := rand.New(rand.NewSource(9))
		g := netgraph.MustTransitStub(128, rng)
		l, base := driftLink(g)
		measure(&traj.Benchmarks, "PathsDeltaRefresh", 0, func(b *testing.B) {
			b.ReportAllocs()
			cur, spare := g.ShortestPaths(netgraph.MetricCost), (*netgraph.Paths)(nil)
			flip := 0
			for ; flip < driftWarmup; flip++ {
				if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
					b.Fatal(err)
				}
				old := cur
				cur, _ = cur.RefreshFrom(g, spare)
				spare = old
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
					b.Fatal(err)
				}
				flip++
				old := cur
				next, stats := cur.RefreshFrom(g, spare)
				if stats.Mode != netgraph.RefreshIncremental || stats.RowsRecomputed == 0 {
					b.Fatalf("steady-state refresh = %+v, want incremental with rows", stats)
				}
				cur, spare = next, old
			}
		})
	}

	// ChaosDriftMaintain: the whole maintenance path one chaos link-drift
	// event triggers — incremental path repair plus the scoped hierarchy
	// rebind over the changed rows (mirrors BenchmarkChaosDriftMaintain/
	// delta). Same zero-alloc invariant as PathsDeltaRefresh.
	{
		rng := rand.New(rand.NewSource(10))
		g := netgraph.MustTransitStub(128, rng)
		l, base := driftLink(g)
		paths := g.ShortestPaths(netgraph.MetricCost)
		h, err := hierarchy.Build(g, paths, 32, rng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		measure(&traj.Benchmarks, "ChaosDriftMaintain", 0, func(b *testing.B) {
			b.ReportAllocs()
			cur, spare := paths, (*netgraph.Paths)(nil)
			flip := 0
			for ; flip < driftWarmup; flip++ {
				if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
					b.Fatal(err)
				}
				old := cur
				cur, _ = cur.RefreshFrom(g, spare)
				spare = old
			}
			if err := h.Rebind(cur); err != nil {
				b.Fatal(err)
			}
			// Empty (non-nil) row set: audits nothing, but primes the
			// hierarchy's lazily allocated row-mark scratch.
			if err := h.RebindRows(cur, []netgraph.NodeID{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.SetLinkCost(l.A, l.B, base*(0.90+0.05*float64(flip%2))); err != nil {
					b.Fatal(err)
				}
				flip++
				old := cur
				next, stats := cur.RefreshFrom(g, spare)
				cur, spare = next, old
				if err := h.RebindRows(next, stats.Rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Deploy: the full System planning path (Top-Down, 128 nodes,
	// max_cs=32 — the paper's standard setting), telemetry off. Plans per
	// second uses the measured per-query search-space accounting.
	{
		g := hnp.TransitStubNetwork(128, 1)
		sys, err := hnp.NewSystem(g, 32, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		rng := rand.New(rand.NewSource(2))
		ids := make([]hnp.StreamID, 6)
		for i := range ids {
			ids[i] = sys.AddStream("s", 1+rng.Float64()*50, hnp.NodeID(rng.Intn(128)))
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				sys.SetSelectivity(ids[i], ids[j], 0.005+0.01*rng.Float64())
			}
		}
		var plansPerOp float64
		measure(&traj.Benchmarks, "Deploy", 0, func(b *testing.B) {
			b.ReportAllocs()
			plans := 0.0
			for i := 0; i < b.N; i++ {
				k := 3 + i%3
				d, err := sys.Plan(ids[:k], hnp.NodeID(i%128), hnp.AlgoTopDown)
				if err != nil {
					b.Fatal(err)
				}
				plans += d.PlansConsidered
			}
			plansPerOp = plans / float64(b.N)
		})
		last := &traj.Benchmarks[len(traj.Benchmarks)-1]
		if last.NsPerOp > 0 {
			last.PlansPerSec = plansPerOp / (float64(last.NsPerOp) / 1e9)
		}
	}

	// AdsInputsFor / AdsRetract: one planner lookup, and one undeploy's
	// retraction paired with the re-advertisement that restores it, against
	// standing registries of growing size (mirrors BenchmarkAdsInputsFor and
	// BenchmarkAdsRetract). Neither may grow with the registry.
	for _, n := range []int{64, 1024, 4096} {
		reg, standing := workload.StandingAds(n, 24, 128, rand.New(rand.NewSource(seed)))
		rt := make(query.RateTable, 1<<6)
		measure(&traj.Benchmarks, fmt.Sprintf("AdsInputsFor%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				adsSink += len(reg.InputsFor(standing[i%len(standing)].Query, rt, nil))
			}
		})
		measure(&traj.Benchmarks, fmt.Sprintf("AdsRetract%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := standing[i%len(standing)]
				adsSink += reg.RetractPlan(d.Query, d.Plan)
				reg.AdvertisePlan(d.Query, d.Plan)
			}
		})
	}

	// RewritePushdown: the figure workload's CQL statements end to end —
	// parse, logical optimizer pipeline (constant folding, predicate
	// pushdown, column pruning) and Top-Down planning over schema-bearing
	// 100-byte streams. rewrite_bytes_frac records the planned
	// bytes-on-wire of these statements relative to planning them with
	// the pipeline killed (seed-pinned; below 1.0 means pushdown wins).
	{
		sys, sink, stmts := rewriteWorkload()
		planAll := func() float64 {
			total := 0.0
			for _, s := range stmts {
				d, err := sys.PlanCQL(s, sink, hnp.AlgoTopDown)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
					os.Exit(1)
				}
				total += d.Plan.PlannedBytes(sink)
			}
			return total
		}
		measure(&traj.Benchmarks, "RewritePushdown", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planAll()
			}
		})
		onBytes := planAll()
		hnp.SetPushdown(false)
		offBytes := planAll()
		hnp.SetPushdown(true)
		last := &traj.Benchmarks[len(traj.Benchmarks)-1]
		if offBytes > 0 {
			last.RewriteBytesFrac = onBytes / offBytes
		}
		fmt.Fprintf(os.Stderr, "%-12s planned bytes on/off = %.4g/%.4g (frac %.3f)\n",
			"", onBytes, offBytes, last.RewriteBytesFrac)
	}

	// MigrateDelta vs MigrateTeardown: replacing a running K=6 plan after
	// a single placement change, as a diff-based migration and as the
	// undeploy+redeploy it replaces. ns/op is local planning bookkeeping;
	// ops_churned_per_op is the deployed-system cost the diff machinery
	// exists to shrink (~2 vs ~2K operators).
	{
		g, cat, q, planA, planB := migratePlans()
		const until = 1e6

		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var churnPerOp float64
		measure(&traj.Benchmarks, "MigrateDelta", 0, func(b *testing.B) {
			b.ReportAllocs()
			churn := 0
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
			churnPerOp = float64(churn) / float64(b.N)
		})
		traj.Benchmarks[len(traj.Benchmarks)-1].OpsChurnedPerOp = churnPerOp

		rt = iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		measure(&traj.Benchmarks, "MigrateTeardown", 0, func(b *testing.B) {
			b.ReportAllocs()
			churn := 0
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
			churnPerOp = float64(churn) / float64(b.N)
		})
		traj.Benchmarks[len(traj.Benchmarks)-1].OpsChurnedPerOp = churnPerOp
	}

	// AdaptStep: one closed-loop control interval on a live deployment —
	// windowed drift measurement, calibration, re-plan, diff and marginal
	// byte-gain prediction — with migration disabled so every iteration
	// pays the full decision path (mirrors BenchmarkAdaptControl/step).
	{
		g, cat, q, planA, planB := migratePlans()
		const until = 1e9
		rt := iflow.New(g, iflow.DefaultConfig(), 1)
		if err := rt.Deploy(q, planA, cat, until); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		acfg := adapt.DefaultConfig()
		acfg.Mode = adapt.ModeNever
		acfg.DriftThreshold = 1e-9
		ctl := adapt.New(rt, cat, func(*query.Query) (*query.PlanNode, error) {
			return planB, nil
		}, acfg)
		ctl.Track(q, planA)
		rt.RunFor(5)
		measure(&traj.Benchmarks, "AdaptStep", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt.RunFor(1)
				b.StartTimer()
				ctl.Step()
			}
		})
	}

	// AdaptControl: the pinned chaos rate-shift seed replayed under
	// never-migrate, always-remigrate and the gated controller; the
	// recorded ratios are the controller's byte totals against each
	// baseline (mirrors BenchmarkAdaptControl/compare).
	// One iteration suffices: the comparison is seed-deterministic, so
	// every repeat reproduces the identical ratios — only wall-clock
	// (which nobody tracks here) would accumulate.
	{
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var vsNever, vsAlways float64
		iters := 0
		measure(&traj.Benchmarks, "AdaptControl", 0, func(b *testing.B) {
			vsNever, vsAlways, iters = 0, 0, 0
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
				iters++
			}
		})
		last := &traj.Benchmarks[len(traj.Benchmarks)-1]
		if iters > 0 {
			last.BytesVsNever = vsNever / float64(iters)
			last.BytesVsAlways = vsAlways / float64(iters)
		}
	}

	finish(traj, *outPath, *compare, *threshold)
}

// finish writes the trajectory and, with -compare, diffs it against the
// baseline, exiting 3 on regression. The baseline's before-rows are
// carried into the written file.
func finish(traj benchfmt.Trajectory, outPath, compare string, threshold float64) {
	var base benchfmt.Trajectory
	if compare != "" {
		var err error
		if base, err = benchfmt.Load(compare); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -compare: %v\n", err)
			os.Exit(1)
		}
		traj.BeforeCommit, traj.Before = base.BeforeCommit, base.Before
	}
	if err := benchfmt.Write(outPath, traj); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if outPath != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if compare != "" {
		if regressions := benchfmt.Diff(os.Stdout, base, traj, threshold); regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed vs %s\n", regressions, compare)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s\n", compare)
	}
}
