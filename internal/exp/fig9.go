package exp

import (
	"math/rand"

	costpkg "hnp/internal/cost"
	"hnp/internal/engine"
	"hnp/internal/netgraph"
	"hnp/internal/query"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// Fig9 reproduces Figure 9: scalability with network size — the average
// number of deployments (plans) considered per query for Top-Down and
// Bottom-Up at max_cs=32 on transit-stub networks of growing size,
// against the exhaustive search space (computed with Lemma 1, as in the
// paper) and the analytical worst-case bound β·O_exhaustive (Theorems 2
// and 4). Queries join 4 streams from a pool of 100 sources.
func Fig9(cfg Config) (*Figure, error) {
	cfg.fig = "fig9"
	sizes := []int{128, 256, 512, 1024} // the paper's network-size sweep
	const (
		maxCS   = 32
		queries = 10
		streams = 10
	)
	f := &Figure{
		ID:     "fig9",
		Title:  "Scalability with network size (4-stream queries, max_cs=32)",
		XLabel: "network size",
		YLabel: "plans considered per query (log-scale quantity)",
	}
	// Each network size builds its own env and rng (seeded from the size),
	// so the sweep iterations share nothing and run through runParallel,
	// writing into index-addressed slots.
	tdY := make([]float64, len(sizes))
	buY := make([]float64, len(sizes))
	exY := make([]float64, len(sizes))
	boundY := make([]float64, len(sizes))
	xs := make([]float64, len(sizes))
	err := runParallel(len(sizes), func(i int) error {
		n := sizes[i]
		xs[i] = float64(n)
		e := newEnv(n, cfg.Seed+int64(n))
		h := e.hier(maxCS)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*7))
		wcfg := workload.Default(streams, queries)
		wcfg.MinSources, wcfg.MaxSources = 4, 4
		w, err := workload.Generate(wcfg, n, rng)
		if err != nil {
			return err
		}
		if tdY[i], buY[i], err = plansConsidered(e.system(h, w.Catalog), w.Queries); err != nil {
			return err
		}
		exY[i] = costpkg.Lemma1(4, n)
		boundY[i] = costpkg.HierarchicalSpaceBound(4, n, maxCS, h.Height())
		cfg.markProgress()
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Series = []Series{
		{Name: "Top-Down", X: xs, Y: tdY},
		{Name: "Bottom-Up", X: xs, Y: buY},
		{Name: "Exhaustive (Lemma 1)", X: xs, Y: exY},
		{Name: "Analytical bound", X: xs, Y: boundY},
	}
	last := len(sizes) - 1
	f.AddNote("search-space reduction at %d nodes: Top-Down %.4f%%, Bottom-Up %.4f%% of exhaustive (paper: both ≥99%% reduction)",
		sizes[last], 100*tdY[last]/exY[last], 100*buY[last]/exY[last])
	f.AddNote("uniform sources: Bottom-Up considers %.0f%% fewer plans than Top-Down",
		100*(1-stats.Mean(buY)/stats.Mean(tdY)))

	// Bottom-Up's search-space advantage comes from splitting queries
	// early, which requires query sources to cluster regionally (as in
	// the paper's workloads): measure it on a regional workload at the
	// first network size.
	tdReg, buReg, err := fig9Regional(cfg, sizes[0], maxCS, queries)
	if err != nil {
		return nil, err
	}
	f.AddNote("regional sources (%d nodes): Bottom-Up considers %.0f%% fewer plans than Top-Down (paper: ~45%% less)",
		sizes[0], 100*(1-buReg/tdReg))
	return f, nil
}

// fig9Regional builds a workload whose stream sources all sit inside one
// level-1 partition (queries over a regional data center) and returns the
// mean plans considered by Top-Down and Bottom-Up.
func fig9Regional(cfg Config, n, maxCS, queries int) (td, bu float64, err error) {
	e := newEnv(n, cfg.Seed+999)
	h := e.hier(maxCS)
	rng := rand.New(rand.NewSource(cfg.Seed + 991))
	region := h.LevelAt(1).Clusters[rng.Intn(len(h.LevelAt(1).Clusters))]
	members := region.Members

	cat := query.NewCatalog(0.01)
	var ids []query.StreamID
	for i := 0; i < 10; i++ {
		src := members[rng.Intn(len(members))]
		ids = append(ids, cat.Add("s", 1+rng.Float64()*99, src))
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			cat.SetSelectivity(ids[i], ids[j], 0.001+rng.Float64()*0.019)
		}
	}
	qs := make([]*query.Query, queries)
	for qi := range qs {
		perm := rng.Perm(len(ids))
		srcs := []query.StreamID{ids[perm[0]], ids[perm[1]], ids[perm[2]], ids[perm[3]]}
		if qs[qi], err = query.NewQuery(qi, srcs, netgraph.NodeID(rng.Intn(n))); err != nil {
			return 0, 0, err
		}
	}
	return plansConsidered(e.system(h, cat), qs)
}

// plansConsidered plans each query with Top-Down and with Bottom-Up on
// sys, without reuse, and returns the mean plans each considered.
func plansConsidered(sys *engine.System, qs []*query.Query) (td, bu float64, err error) {
	var tds, bus []float64
	for _, q := range qs {
		tdRes, err := sys.PlanQuery(q, engine.AlgoTopDown, nil)
		if err != nil {
			return 0, 0, err
		}
		buRes, err := sys.PlanQuery(q, engine.AlgoBottomUp, nil)
		if err != nil {
			return 0, 0, err
		}
		tds = append(tds, tdRes.PlansConsidered)
		bus = append(bus, buRes.PlansConsidered)
	}
	return stats.Mean(tds), stats.Mean(bus), nil
}
