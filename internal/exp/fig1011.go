package exp

import (
	"math/rand"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/iflow"
	"hnp/internal/netgraph"
	"hnp/internal/query"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// testbed reproduces the paper's Emulab setup in simulation: a 32-node
// GT-ITM topology with 1-60 ms inter-node delays, 25 queries over 8
// stream sources with 1-4 joins per query.
type testbed struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	w     *workload.Workload
	hiers map[int]*hierarchy.Hierarchy
}

func newTestbed(seed int64) (*testbed, error) {
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(32, rng)
	paths := g.ShortestPaths(netgraph.MetricCost)
	wcfg := workload.Default(8, 25)
	wcfg.MinSources, wcfg.MaxSources = 2, 5 // 1-4 joins per query
	w, err := workload.Generate(wcfg, 32, rng)
	if err != nil {
		return nil, err
	}
	tb := &testbed{g: g, paths: paths, w: w, hiers: map[int]*hierarchy.Hierarchy{}}
	for _, cs := range []int{4, 8} {
		h, err := hierarchy.Build(g, paths, cs, rng)
		if err != nil {
			return nil, err
		}
		tb.hiers[cs] = h
	}
	return tb, nil
}

// Fig10 reproduces Figure 10: average query deployment time (seconds of
// simulated protocol latency plus planning CPU) versus query size for
// Top-Down and Bottom-Up at cluster sizes 4 and 8 on the Emulab-substitute
// testbed. The paper reports Bottom-Up deploying ~70% faster.
func Fig10(cfg Config) (*Figure, error) {
	cfg.fig = "fig10"
	tb, err := newTestbed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := iflow.New(tb.g, iflow.DefaultConfig(), cfg.Seed)

	algos := []struct {
		name     string
		cs       int
		bottomUp bool // explicit algorithm tag; never inferred from the name
	}{
		{"Bottom-Up (cluster size=4)", 4, true},
		{"Bottom-Up (cluster size=8)", 8, true},
		{"Top-Down (cluster size=4)", 4, false},
		{"Top-Down (cluster size=8)", 8, false},
	}

	sizes := []int{2, 3, 4, 5}
	f := &Figure{
		ID:     "fig10",
		Title:  "Query deployment time vs query size (32-node testbed)",
		XLabel: "query size (number of streams)",
		YLabel: "deployment time (seconds)",
	}
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	// Headline accumulators ride along the algos loop, keyed by the
	// explicit bottomUp tag, so renaming a series cannot move its time
	// into the other algorithm's sum.
	var buSum, tdSum float64
	for _, a := range algos {
		h, run := tb.hiers[a.cs], core.TopDownOpts
		if a.bottomUp {
			run = core.BottomUpOpts
		}
		ys := make([]float64, len(sizes))
		for si, k := range sizes {
			var times []float64
			for _, q := range tb.w.Queries {
				if q.K() != k {
					continue
				}
				res, err := run(h, tb.w.Catalog, q, nil, core.Options{})
				if err != nil {
					return nil, err
				}
				times = append(times, rt.DeployTime(res.Trace, q.Sink))
			}
			ys[si] = stats.Mean(times)
		}
		f.Series = append(f.Series, Series{Name: a.name, X: xs, Y: ys})
		cfg.markProgress()
		if a.bottomUp {
			buSum += stats.Mean(ys)
		} else {
			tdSum += stats.Mean(ys)
		}
	}
	if tdSum > 0 {
		f.AddNote("Bottom-Up deployment time is %.0f%% lower than Top-Down (paper: ~70%%)",
			100*(1-buSum/tdSum))
	}
	return f, nil
}

// Fig11 reproduces Figure 11: cumulative deployed cost of 25 queries on
// the testbed for both algorithms at cluster sizes 4 and 8; Top-Down
// yields cheaper deployments. It also cross-checks the analytic cost
// model by running all deployed plans in the IFLOW runtime and comparing
// measured and predicted cost rates.
func Fig11(cfg Config) (*Figure, error) {
	cfg.fig = "fig11"
	tb, err := newTestbed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "fig11",
		Title:  "Cumulative deployed cost, 25 queries (32-node testbed)",
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	type algo struct {
		name string
		cs   int
		td   bool
	}
	algos := []algo{
		{"Bottom-Up (cluster size=4)", 4, false},
		{"Bottom-Up (cluster size=8)", 8, false},
		{"Top-Down (cluster size=4)", 4, true},
		{"Top-Down (cluster size=8)", 8, true},
	}
	keep := map[string][]core.Result{}
	for _, a := range algos {
		h := tb.hiers[a.cs]
		costs, results, err := deploySequence(tb.w.Queries, true,
			func(q *query.Query, reg *ads.Registry) (core.Result, error) {
				if a.td {
					return core.TopDown(h, tb.w.Catalog, q, reg)
				}
				return core.BottomUpOpts(h, tb.w.Catalog, q, reg, core.Options{})
			})
		if err != nil {
			return nil, err
		}
		keep[a.name] = results
		f.Series = append(f.Series, Series{Name: a.name, X: seqX(len(costs)), Y: stats.Cumulative(costs)})
		cfg.markProgress()
	}
	td4, bu4 := f.Final("Top-Down (cluster size=4)"), f.Final("Bottom-Up (cluster size=4)")
	td8, bu8 := f.Final("Top-Down (cluster size=8)"), f.Final("Bottom-Up (cluster size=8)")
	f.AddNote("Top-Down vs Bottom-Up: %.1f%% cheaper at cluster size 4, %.1f%% at 8 (paper: Top-Down lower)",
		100*(1-td4/bu4), 100*(1-td8/bu8))

	// Runtime cross-check: deploy the Top-Down(8) plans in IFLOW for 30
	// simulated seconds and compare measured vs analytic cost rate. The
	// engine's empirical pairwise selectivity is 2·Window/KeyDomain; pick
	// KeyDomain so it matches the workload's mean selectivity, then scale
	// the analytic total to tuple-size units.
	icfg := iflow.DefaultConfig()
	meanSel := 0.0105 // workload.Default: uniform in [0.001, 0.02]
	icfg.KeyDomain = int64(2 * icfg.Window / meanSel)
	rt := iflow.New(tb.g, icfg, cfg.Seed+5)
	horizon := 30.0
	deployed := 0
	analytic := 0.0
	for i, res := range keep["Top-Down (cluster size=8)"] {
		q := tb.w.Queries[i]
		if err := rt.Deploy(q, res.Plan, tb.w.Catalog, horizon); err != nil {
			continue // reused plan fragments may be gone if a deploy failed
		}
		deployed++
		analytic += res.Cost
	}
	rt.RunFor(horizon)
	measured := rt.CostRate() / icfg.TupleSize
	if analytic > 0 {
		f.AddNote("runtime cross-check: %d/%d queries executed, measured cost rate %.3g vs analytic %.3g (ratio %.2f)",
			deployed, len(tb.w.Queries), measured, analytic, measured/analytic)
	} else {
		// No query deployed (or all plans were free): a ratio would be
		// NaN/Inf, so report the raw rates without one.
		f.AddNote("runtime cross-check: %d/%d queries executed, measured cost rate %.3g vs analytic %.3g (no ratio: zero analytic cost)",
			deployed, len(tb.w.Queries), measured, analytic)
	}
	return f, nil
}
