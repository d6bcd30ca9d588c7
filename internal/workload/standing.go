package workload

import (
	"math/rand"

	"hnp/internal/ads"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Standing is one deployment of a synthesized standing population: a
// query and the placed plan whose operators it advertised.
type Standing struct {
	Query *query.Query
	Plan  *query.PlanNode
}

// StandingAds fills a fresh registry the way a long-running server's
// fills: left-deep plans of random 4-6-source queries over the given
// number of streams, operators on random nodes, advertised one after the
// other until at least n ads stand. It is the fixture of the registry
// benchmarks (BenchmarkAdsInputsFor, BenchmarkAdsRetract); identical
// arguments give identical registries.
func StandingAds(n, streams, nodes int, rng *rand.Rand) (*ads.Registry, []Standing) {
	reg := ads.NewRegistry()
	var out []Standing
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
		out = append(out, Standing{q, plan})
	}
	return reg, out
}
