package exp

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hnp/internal/ads"
	"hnp/internal/core"
	"hnp/internal/hierarchy"
	"hnp/internal/netgraph"
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

// optimizer plans one query, considering the registry's ads when non-nil.
type optimizer func(q *query.Query, reg *ads.Registry) (core.Result, error)

// deploySequence deploys queries one at a time: each query is planned
// against the ads of all previously deployed queries (when reuse is on),
// then its operators are advertised. It returns the per-query marginal
// costs and full results.
func deploySequence(qs []*query.Query, reuse bool, opt optimizer) ([]float64, []core.Result, error) {
	var reg *ads.Registry
	if reuse {
		reg = ads.NewRegistry()
	}
	costs := make([]float64, 0, len(qs))
	var results []core.Result
	for _, q := range qs {
		res, err := opt(q, reg)
		if err != nil {
			return nil, nil, err
		}
		costs = append(costs, res.Cost)
		results = append(results, res)
		if reg != nil {
			reg.AdvertisePlan(q, res.Plan)
		}
	}
	return costs, results, nil
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

// cumulativeAveraged runs fn for each workload seed, collecting per-query
// marginal costs, and returns the workload-averaged cumulative curve.
// Workload repetitions are independent (each gets its own seeded rng), so
// they run through runParallel; rows are indexed by repetition, keeping
// the MeanAcross float accumulation order — and thus the output bits —
// identical at every worker count.
func cumulativeAveraged(cfg Config, fn func(w *workload.Workload, rng *rand.Rand) ([]float64, error),
	gen func(rng *rand.Rand) (*workload.Workload, error)) ([]float64, error) {
	rows := make([][]float64, cfg.Workloads)
	err := runParallel(cfg.Workloads, func(wi int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(wi)*1009))
		w, err := gen(rng)
		if err != nil {
			return err
		}
		costs, err := fn(w, rng)
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
