package exp

import (
	"hnp/internal/engine"
	"hnp/internal/iflow"
	"hnp/internal/query"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// newTestbed reproduces the paper's Emulab setup in simulation: a 32-node
// GT-ITM topology with 1-60 ms inter-node delays, 25 queries over 8
// stream sources with 1-4 joins per query, and the hierarchies for
// cluster sizes 4 and 8, all drawn from one rng in that order.
func newTestbed(seed int64) (*env, *workload.Workload, error) {
	e := newEnv(32, seed)
	wcfg := workload.Default(8, 25)
	wcfg.MinSources, wcfg.MaxSources = 2, 5 // 1-4 joins per query
	w, err := workload.Generate(wcfg, 32, e.rng)
	if err != nil {
		return nil, nil, err
	}
	e.hier(4)
	e.hier(8)
	return e, w, nil
}

// testbedAlgos are the four configurations Figures 10 and 11 compare.
var testbedAlgos = []struct {
	name string
	cs   int
	algo engine.Algorithm // explicit; never inferred from the name
}{
	{"Bottom-Up (cluster size=4)", 4, engine.AlgoBottomUp},
	{"Bottom-Up (cluster size=8)", 8, engine.AlgoBottomUp},
	{"Top-Down (cluster size=4)", 4, engine.AlgoTopDown},
	{"Top-Down (cluster size=8)", 8, engine.AlgoTopDown},
}

// Fig10 reproduces Figure 10: average query deployment time (seconds of
// simulated protocol latency plus planning CPU) versus query size for
// Top-Down and Bottom-Up at cluster sizes 4 and 8 on the Emulab-substitute
// testbed. The paper reports Bottom-Up deploying ~70% faster.
func Fig10(cfg Config) (*Figure, error) {
	cfg.fig = "fig10"
	e, w, err := newTestbed(cfg.Seed)
	if err != nil {
		return nil, err
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
	// explicit algorithm, so renaming a series cannot move its time into
	// the other algorithm's sum.
	var buSum, tdSum float64
	for _, a := range testbedAlgos {
		eng := engine.NewEngine(e.system(e.hier(a.cs), w.Catalog), iflow.DefaultConfig(), cfg.Seed, 0)
		ys := make([]float64, len(sizes))
		for si, k := range sizes {
			var times []float64
			for _, q := range w.Queries {
				if q.K() != k {
					continue
				}
				res, err := eng.PlanQuery(q, a.algo, nil)
				if err != nil {
					return nil, err
				}
				times = append(times, eng.RT.DeployTime(res.Trace, q.Sink))
			}
			ys[si] = stats.Mean(times)
		}
		f.Series = append(f.Series, Series{Name: a.name, X: xs, Y: ys})
		cfg.markProgress()
		if a.algo == engine.AlgoBottomUp {
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
// yields cheaper deployments. Every configuration commits its plans to an
// Engine, and the Top-Down(8) one then runs them to cross-check the
// analytic cost model: measured against predicted cost rate.
func Fig11(cfg Config) (*Figure, error) {
	cfg.fig = "fig11"
	e, w, err := newTestbed(cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "fig11",
		Title:  "Cumulative deployed cost, 25 queries (32-node testbed)",
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	// The runtime's empirical pairwise selectivity is 2·Window/KeyDomain;
	// pick KeyDomain so it matches the workload's mean selectivity, then
	// scale the analytic total to tuple-size units.
	meanSel := 0.0105 // workload.Default: uniform in [0.001, 0.02]
	icfg := iflow.Config{KeyDomain: int64(2 * iflow.Window / meanSel)}
	const horizon = 30.0
	var metered *engine.Engine
	for _, a := range testbedAlgos {
		eng := engine.NewEngine(e.system(e.hier(a.cs), w.Catalog), icfg, cfg.Seed+5, horizon)
		costs, err := commit(eng.System, eng.Deploy, w.Queries, true, algorithm(a.algo))
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, Series{Name: a.name, X: seqX(len(costs)), Y: stats.Cumulative(costs)})
		cfg.markProgress()
		if a.algo == engine.AlgoTopDown && a.cs == 8 {
			metered = eng
		}
	}
	td4, bu4 := f.Final("Top-Down (cluster size=4)"), f.Final("Bottom-Up (cluster size=4)")
	td8, bu8 := f.Final("Top-Down (cluster size=8)"), f.Final("Bottom-Up (cluster size=8)")
	f.AddNote("Top-Down vs Bottom-Up: %.1f%% cheaper at cluster size 4, %.1f%% at 8 (paper: Top-Down lower)",
		100*(1-td4/bu4), 100*(1-td8/bu8))

	// Runtime cross-check: run the Top-Down(8) deployments for 30
	// simulated seconds, then audit the engine that ran them.
	metered.RT.RunFor(horizon)
	if err := metered.Audit(); err != nil {
		return nil, err
	}
	measured := metered.RT.CostRate() / query.DefaultTupleWidth
	n, analytic := len(w.Queries), td8
	if analytic > 0 {
		f.AddNote("runtime cross-check: %d/%d queries executed, measured cost rate %.3g vs analytic %.3g (ratio %.2f)",
			n, n, measured, analytic, measured/analytic)
	} else {
		// All plans were free: a ratio would be NaN/Inf, so report the
		// raw rates without one.
		f.AddNote("runtime cross-check: %d/%d queries executed, measured cost rate %.3g vs analytic %.3g (no ratio: zero analytic cost)",
			n, n, measured, analytic)
	}
	return f, nil
}
