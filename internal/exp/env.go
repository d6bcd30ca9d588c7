package exp

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/engine"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
	"hnp/internal/stats"
	"hnp/internal/workload"
)

// env is one experimental setup: a topology, its paths, and lazily-built
// hierarchies per max_cs.
type env struct {
	g     *netgraph.Graph
	paths *netgraph.Paths
	hs    map[int]*hierarchy.Hierarchy
	rng   *rand.Rand
}

func newEnv(n int, seed int64) *env {
	rng := rand.New(rand.NewSource(seed))
	g := netgraph.MustTransitStub(n, rng)
	return &env{
		g:     g,
		paths: g.ShortestPaths(netgraph.MetricCost),
		hs:    map[int]*hierarchy.Hierarchy{},
		rng:   rng,
	}
}

// hier returns (building on first use) the hierarchy for one max_cs.
func (e *env) hier(maxCS int) *hierarchy.Hierarchy {
	if h, ok := e.hs[maxCS]; ok {
		return h
	}
	h := hierarchy.MustBuild(e.g, e.paths, maxCS, e.rng)
	e.hs[maxCS] = h
	return h
}

// system returns a planning-only System over h and cat with telemetry of
// its own. Systems share h: a hierarchy records into its builder's
// registry, and the env binds none.
func (e *env) system(h *hierarchy.Hierarchy, cat *query.Catalog) *engine.System {
	return engine.NewSystem(e.g, h, cat, obs.NewRegistry())
}

// optimizer plans one query on sys, considering reg's ads when non-nil.
type optimizer func(sys *engine.System, q *query.Query, reg *ads.Registry) (core.Result, error)

// algorithm is the optimizer that plans with one of the engine's
// algorithms.
func algorithm(a engine.Algorithm) optimizer {
	return func(sys *engine.System, q *query.Query, reg *ads.Registry) (core.Result, error) {
		return sys.PlanQuery(q, a, reg)
	}
}

// commit plans the queries one at a time on sys, each against the ads of
// those committed before it when reuse is on, and hands each deployment to
// deploy (sys.Deploy, or an Engine's). It returns the per-query marginal
// costs.
func commit(sys *engine.System, deploy func(engine.Deployment) error, qs []*query.Query, reuse bool, opt optimizer) ([]float64, error) {
	var reg *ads.Registry
	if reuse {
		reg = sys.Registry
	}
	costs := make([]float64, 0, len(qs))
	for _, q := range qs {
		res, err := opt(sys, q, reg)
		if err != nil {
			return nil, err
		}
		if err := deploy(engine.Deployment{Query: q, Result: res}); err != nil {
			return nil, err
		}
		costs = append(costs, res.Cost)
	}
	return costs, nil
}

// runParallel invokes fn(0..n-1), fanning the indices over a
// GOMAXPROCS-bounded worker pool (one worker, so index order, at
// GOMAXPROCS 1), and returns the first error any invocation produced.
// Callers must write results into index-addressed slots so the output is
// bit-identical at every worker count; fn must not touch shared mutable
// state that is not internally synchronized.
func runParallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// averaged commits cfg.Workloads random workloads (10 streams,
// cfg.Queries queries) on h, each on a System of its own, and returns the
// workload-averaged cumulative cost curve. Workload repetitions are
// independent (each gets its own seeded rng), so they run through
// runParallel; rows are indexed by repetition, keeping the MeanAcross
// float accumulation order — and thus the output bits — identical at
// every worker count.
func (e *env) averaged(cfg Config, h *hierarchy.Hierarchy, reuse bool, opt optimizer) ([]float64, error) {
	rows := make([][]float64, cfg.Workloads)
	err := runParallel(cfg.Workloads, func(wi int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(wi)*1009))
		w, err := workload.Generate(workload.Default(10, cfg.Queries), e.g.NumNodes(), rng)
		if err != nil {
			return err
		}
		sys := e.system(h, w.Catalog)
		costs, err := commit(sys, sys.Deploy, w.Queries, reuse, opt)
		if err != nil {
			return err
		}
		rows[wi] = stats.Cumulative(costs)
		cfg.markProgress()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats.MeanAcross(rows), nil
}

func seqX(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}
