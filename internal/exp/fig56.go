package exp

import (
	"fmt"

	"hnp/internal/engine"
)

// clusterSizes is the max_cs sweep of Figures 5 and 6.
var clusterSizes = []int{2, 4, 8, 16, 32, 64}

// fig56 runs the cluster-size tuning experiment for one algorithm: a
// 128-node network with 100 stream sources, queries with 2-5 joins,
// cumulative deployed cost (averaged over cfg.Workloads random workloads)
// for each max_cs.
func fig56(cfg Config, id, name string, algo engine.Algorithm) (*Figure, error) {
	cfg.fig = id
	const nodes = 128
	e := newEnv(nodes, cfg.Seed)
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s: cost vs max_cs (128 nodes, 10 streams, %d queries x %d workloads)", name, cfg.Queries, cfg.Workloads),
		XLabel: "queries deployed",
		YLabel: "cumulative cost per unit time",
	}
	// Hierarchies must be prebuilt serially in sweep order: lazy builds
	// consume the env's shared rng, so building them inside a parallel
	// sweep would change (and unorder) the constructions.
	for _, cs := range clusterSizes {
		e.hier(cs)
	}
	series := make([]Series, len(clusterSizes))
	err := runParallel(len(clusterSizes), func(ci int) error {
		cs := clusterSizes[ci]
		avg, err := e.averaged(cfg, e.hier(cs), true, algorithm(algo))
		if err != nil {
			return err
		}
		series[ci] = Series{
			Name: fmt.Sprintf("max_cs=%d", cs),
			X:    seqX(cfg.Queries),
			Y:    avg,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = series
	small, large := f.Final("max_cs=8"), f.Final("max_cs=64")
	f.AddNote("max_cs=64 vs max_cs=8: %.1f%% cost change (paper fig5: 21%% cheaper for Bottom-Up; fig6: flat above 4)",
		100*(1-large/small))
	return f, nil
}

// Fig5 reproduces Figure 5: the Bottom-Up algorithm's cumulative deployed
// cost for max_cs in {2..64}; larger clusters mean fewer levels, less
// approximation, lower cost.
func Fig5(cfg Config) (*Figure, error) {
	return fig56(cfg, "fig5", "Bottom-Up", engine.AlgoBottomUp)
}

// Fig6 reproduces Figure 6: the same sweep for Top-Down; because the top
// level always considers all operator orderings, costs flatten once
// max_cs exceeds ~4.
func Fig6(cfg Config) (*Figure, error) {
	return fig56(cfg, "fig6", "Top-Down", engine.AlgoTopDown)
}
