// Package workload generates the synthetic workloads of the paper's
// evaluation: uniformly random stream rates, selectivities and source
// placements, and queries with a bounded number of joins and random sink
// placements.
package workload

import (
	"fmt"
	"math/rand"

	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// The paper's uniform draws: stream rates in [rateLo, rateHi] and
// pairwise selectivities in [selLo, selHi].
const (
	rateLo, rateHi float64 = 1, 100
	selLo, selHi   float64 = 0.001, 0.02
)

// Config parameterizes one workload.
type Config struct {
	// Streams is the number of base stream sources.
	Streams int
	// Queries is the number of queries to generate.
	Queries int
	// MinSources/MaxSources bound the number of streams per query
	// (joins per query = sources − 1; the paper uses 2-5 joins).
	MinSources, MaxSources int
}

// Default returns the paper's standard workload shape: 2-5 joins per
// query.
func Default(streams, queries int) Config {
	return Config{
		Streams: streams, Queries: queries,
		MinSources: 3, MaxSources: 6, // 2-5 joins
	}
}

// Workload is a generated catalog plus query set over a given network.
type Workload struct {
	Catalog *query.Catalog
	Queries []*query.Query
	Streams []query.StreamID
}

// StreamSpec describes one synthesized base stream: CatalogSpec's output,
// ready to register into any catalog (query.Catalog.Add or
// hnp.System.AddStream).
type StreamSpec struct {
	Name   string
	Rate   float64
	Source netgraph.NodeID
}

// SelSpec is one synthesized pairwise selectivity, by stream index into
// the corresponding StreamSpec slice.
type SelSpec struct {
	I, J int
	Sel  float64
}

// CatalogSpec draws the stream catalog of a workload — names, rates,
// source placements and pairwise selectivities — without binding it to a
// concrete catalog object, so library users (Generate) and the serving
// layer (smqd shards, which must all build the identical catalog from one
// seed) share one definition. Identical seeds give identical specs; the
// rng consumption order is part of the contract, since Generate continues
// drawing queries from the same rng.
func CatalogSpec(cfg Config, n int, rng *rand.Rand) ([]StreamSpec, []SelSpec, error) {
	if cfg.Streams < 1 || n < 1 {
		return nil, nil, fmt.Errorf("workload: need at least one stream and one node")
	}
	streams := make([]StreamSpec, cfg.Streams)
	for i := range streams {
		rate := rateLo + rng.Float64()*(rateHi-rateLo)
		src := netgraph.NodeID(rng.Intn(n))
		streams[i] = StreamSpec{Name: fmt.Sprintf("stream-%d", i), Rate: rate, Source: src}
	}
	var sels []SelSpec
	for i := 0; i < cfg.Streams; i++ {
		for j := i + 1; j < cfg.Streams; j++ {
			sel := selLo + rng.Float64()*(selHi-selLo)
			sels = append(sels, SelSpec{I: i, J: j, Sel: sel})
		}
	}
	return streams, sels, nil
}

// Generate draws a workload for a network with n nodes. Identical seeds
// give identical workloads.
func Generate(cfg Config, n int, rng *rand.Rand) (*Workload, error) {
	if cfg.MinSources < 1 || cfg.MaxSources < cfg.MinSources {
		return nil, fmt.Errorf("workload: bad source bounds [%d,%d]", cfg.MinSources, cfg.MaxSources)
	}
	if cfg.MaxSources > cfg.Streams {
		return nil, fmt.Errorf("workload: queries over %d sources exceed %d streams",
			cfg.MaxSources, cfg.Streams)
	}
	if cfg.MaxSources > query.MaxSources {
		return nil, fmt.Errorf("workload: MaxSources %d exceeds limit %d", cfg.MaxSources, query.MaxSources)
	}
	specs, sels, err := CatalogSpec(cfg, n, rng)
	if err != nil {
		return nil, err
	}
	cat := query.NewCatalog((selLo + selHi) / 2)
	w := &Workload{Catalog: cat}
	for _, sp := range specs {
		w.Streams = append(w.Streams, cat.Add(sp.Name, sp.Rate, sp.Source))
	}
	for _, s := range sels {
		cat.SetSelectivity(w.Streams[s.I], w.Streams[s.J], s.Sel)
	}
	for qi := 0; qi < cfg.Queries; qi++ {
		k := cfg.MinSources
		if cfg.MaxSources > cfg.MinSources {
			k += rng.Intn(cfg.MaxSources - cfg.MinSources + 1)
		}
		perm := rng.Perm(cfg.Streams)
		srcs := make([]query.StreamID, k)
		for i := range srcs {
			srcs[i] = w.Streams[perm[i]]
		}
		q, err := query.NewQuery(qi, srcs, netgraph.NodeID(rng.Intn(n)))
		if err != nil {
			return nil, err
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}
