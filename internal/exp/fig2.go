package exp

import (
	"math/rand"

	"hnp/internal/ads"
	"hnp/internal/baseline"
	"hnp/internal/core"
	"hnp/internal/engine"
	"hnp/internal/query"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// Config controls experiment scale; DefaultConfig matches the paper, and
// tests shrink it for speed.
type Config struct {
	// Seed drives all randomness; identical configs reproduce identical
	// numbers.
	Seed int64
	// Workloads is how many random workloads figures 5-8 average over
	// (paper: 10).
	Workloads int
	// Queries per workload (paper: 20 for figs 5-8).
	Queries int

	// fig names the figure currently running; set by each Fig entry point
	// so shared harness code can label its progress telemetry.
	fig string
}

// DefaultConfig reproduces the paper's experiment scale.
func DefaultConfig() Config {
	return Config{Seed: 42, Workloads: 10, Queries: 20}
}

// Fig2 reproduces Figure 2: total communication cost of 10 queries over 5
// stream sources each on a 64-node GT-ITM network, comparing two "plan,
// then deploy" approaches (the Relaxation heuristic and an optimal
// placement of the selectivity-chosen plan, both with operator reuse)
// against our approach (Top-Down, which considers plans and deployments
// simultaneously). The paper reports >50% savings for the joint approach.
func Fig2(cfg Config) (*Figure, error) {
	cfg.fig = "fig2"
	const (
		nodes   = 64
		queries = 10
		maxCS   = 16
	)
	e := newEnv(nodes, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	wcfg := workload.Default(10, queries)
	wcfg.MinSources, wcfg.MaxSources = 5, 5 // 5 stream sources per query
	w, err := workload.Generate(wcfg, nodes, rng)
	if err != nil {
		return nil, err
	}
	// The paper computed its 3-D cost space with 4 iterations; mirror that
	// modest embedding budget.
	emb := baseline.Embed(e.g, e.paths, 4, rng)
	h := e.hier(maxCS)

	runs := []struct {
		name string
		opt  optimizer
	}{
		{"Relaxation", func(sys *engine.System, q *query.Query, reg *ads.Registry) (core.Result, error) {
			return baseline.Relaxation(e.g, e.paths, emb, sys.Catalog, q, reg)
		}},
		{"Plan-then-deploy", algorithm(engine.AlgoPlanThenDeploy)},
		{"Our approach (Top-Down)", algorithm(engine.AlgoTopDown)},
	}

	f := &Figure{
		ID:     "fig2",
		Title:  "Joint planning+deployment vs plan-then-deploy (10 queries x 5 sources, 64 nodes)",
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	for _, r := range runs {
		sys := e.system(h, w.Catalog)
		costs, err := commit(sys, sys.Deploy, w.Queries, true, r.opt)
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, Series{Name: r.name, X: seqX(queries), Y: stats.Cumulative(costs)})
		cfg.markProgress()
	}
	relax, ptd, ours := f.Final("Relaxation"), f.Final("Plan-then-deploy"), f.Final("Our approach (Top-Down)")
	f.AddNote("savings vs Relaxation: %.1f%% (paper: >50%%)", 100*(1-ours/relax))
	f.AddNote("savings vs plan-then-deploy: %.1f%% (paper: >50%%)", 100*(1-ours/ptd))
	return f, nil
}
