package exp

import (
	"math/rand"

	"hnp/internal/ads"
	"hnp/internal/baseline"
	"hnp/internal/core"
	"hnp/internal/engine"
	"hnp/internal/query"
)

// Fig8 reproduces Figure 8: comparison with existing approaches — Top-Down
// and Bottom-Up (max_cs=32) versus the exhaustive optimum, the Relaxation
// algorithm (3-D cost space), and zone-based In-network placement (5
// zones, matching max_cs), all with operator reuse. The paper reports
// Top-Down saving ~40% vs In-network and ~59% vs Relaxation.
func Fig8(cfg Config) (*Figure, error) {
	cfg.fig = "fig8"
	const (
		nodes  = 128
		maxCS  = 32
		nZones = 5
	)
	e := newEnv(nodes, cfg.Seed)
	h := e.hier(maxCS)
	setupRng := rand.New(rand.NewSource(cfg.Seed + 77))
	// The paper computed its 3-D cost space with 4 iterations; mirror that
	// modest embedding budget.
	emb := baseline.Embed(e.g, e.paths, 4, setupRng)
	zones, err := baseline.MakeZones(e.g, e.paths, nZones, setupRng)
	if err != nil {
		return nil, err
	}

	runs := []struct {
		name string
		opt  optimizer
	}{
		{"Top-Down with reuse", algorithm(engine.AlgoTopDown)},
		{"Bottom-Up with reuse", algorithm(engine.AlgoBottomUp)},
		{"Exhaustive", algorithm(engine.AlgoOptimal)},
		{"Relaxation with reuse", func(sys *engine.System, q *query.Query, reg *ads.Registry) (core.Result, error) {
			return baseline.Relaxation(e.g, e.paths, emb, sys.Catalog, q, reg)
		}},
		{"In-Network with reuse", func(sys *engine.System, q *query.Query, reg *ads.Registry) (core.Result, error) {
			return baseline.InNetwork(e.g, e.paths, zones, sys.Catalog, q, reg)
		}},
	}

	f := &Figure{
		ID:     "fig8",
		Title:  "Comparison with existing approaches (max_cs=32, 5 zones, 128 nodes)",
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	series := make([]Series, len(runs))
	err = runParallel(len(runs), func(ri int) error {
		r := runs[ri]
		avg, err := e.averaged(cfg, h, true, r.opt)
		if err != nil {
			return err
		}
		series[ri] = Series{Name: r.name, X: seqX(cfg.Queries), Y: avg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = series
	td, bu := f.Final("Top-Down with reuse"), f.Final("Bottom-Up with reuse")
	relax, innet := f.Final("Relaxation with reuse"), f.Final("In-Network with reuse")
	f.AddNote("Top-Down vs In-Network: %.1f%% savings (paper: ~40%%); Bottom-Up vs In-Network: %.1f%% (paper: ~27%%)",
		100*(1-td/innet), 100*(1-bu/innet))
	f.AddNote("Top-Down vs Relaxation: %.1f%% savings (paper: ~59%%); Bottom-Up vs Relaxation: %.1f%% (paper: ~49%%)",
		100*(1-td/relax), 100*(1-bu/relax))
	return f, nil
}
