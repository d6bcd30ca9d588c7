package core_test

import (
	"math"
	"math/bits"
	"testing"

	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
	"hnp/internal/stats"
)

// This file is an optimum that shares no code with the package it checks:
// it reads the catalog's raw statistics and the graph's links, prices
// edges with its own Floyd–Warshall distances and its own sub-join rates,
// and enumerates every bushy join tree with every placement of its joins.
// It uses neither this package nor query.BuildRates.

// oracleTree is a join tree over a query's source positions: a leaf covers
// one position, an inner node joins two subtrees.
type oracleTree struct {
	mask uint32
	l, r *oracleTree
}

// oracleTrees lists every bushy join tree over the positions in mask, each
// unordered split once: (2K−3)!! trees for K positions.
func oracleTrees(mask uint32) []*oracleTree {
	if bits.OnesCount32(mask) == 1 {
		return []*oracleTree{{mask: mask}}
	}
	var out []*oracleTree
	low := mask & -mask
	for a := (mask - 1) & mask; a > 0; a = (a - 1) & mask {
		if a&low == 0 {
			continue // the side without the lowest position is the right one
		}
		for _, l := range oracleTrees(a) {
			for _, r := range oracleTrees(mask &^ a) {
				out = append(out, &oracleTree{mask: mask, l: l, r: r})
			}
		}
	}
	return out
}

// oracleDistances is Floyd–Warshall over the graph's link costs.
func oracleDistances(g *netgraph.Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, l := range g.Links() {
		d[l.A][l.B] = min(d[l.A][l.B], l.Cost)
		d[l.B][l.A] = min(d[l.B][l.A], l.Cost)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d[i][j] = min(d[i][j], d[i][k]+d[k][j])
			}
		}
	}
	return d
}

// oracleOptimum is the least cost of computing q and delivering it to its
// sink: over every join tree and every placement of its joins on any
// node, the sum over edges of the producer's rate times the distance it
// travels. A sub-join's rate is Π rate × Π pairwise selectivity over the
// streams it covers.
func oracleOptimum(g *netgraph.Graph, cat *query.Catalog, q *query.Query) float64 {
	d := oracleDistances(g)
	k := len(q.Sources)
	rate := make([]float64, 1<<k)
	for m := 1; m < 1<<k; m++ {
		r := 1.0
		for i := 0; i < k; i++ {
			if m&(1<<i) == 0 {
				continue
			}
			r *= cat.Stream(q.Sources[i]).Rate
			for j := i + 1; j < k; j++ {
				if m&(1<<j) != 0 {
					r *= cat.Selectivity(q.Sources[i], q.Sources[j])
				}
			}
		}
		rate[m] = r
	}
	best := math.Inf(1)
	for _, t := range oracleTrees(uint32(1<<k - 1)) {
		var inner []*oracleTree
		var collect func(t *oracleTree)
		collect = func(t *oracleTree) {
			if t.l != nil {
				collect(t.l)
				collect(t.r)
				inner = append(inner, t)
			}
		}
		collect(t)
		loc := map[*oracleTree]int{}
		// cost places t (leaves sit at their stream's source) and returns
		// its node and the cost of every edge below it.
		var cost func(t *oracleTree) (int, float64)
		cost = func(t *oracleTree) (int, float64) {
			if t.l == nil {
				return int(cat.Stream(q.Sources[bits.TrailingZeros32(t.mask)]).Source), 0
			}
			at := loc[t]
			la, lc := cost(t.l)
			ra, rc := cost(t.r)
			return at, lc + rc + rate[t.l.mask]*d[la][at] + rate[t.r.mask]*d[ra][at]
		}
		// Every placement of the inner nodes, as an odometer over nodes.
		var place func(i int)
		place = func(i int) {
			if i == len(inner) {
				at, c := cost(t)
				best = min(best, c+rate[t.mask]*d[at][q.Sink])
				return
			}
			for v := 0; v < g.NumNodes(); v++ {
				loc[inner[i]] = v
				place(i + 1)
			}
		}
		place(0)
	}
	return best
}

// TestOptimalMatchesExhaustiveOracle requires Optimal, with no
// advertisements on offer, to reach the oracle's optimum on seeded random
// instances of 2 to 4 sources on 4 to 12 nodes.
func TestOptimalMatchesExhaustiveOracle(t *testing.T) {
	const instances = 200
	if got := len(oracleTrees(0b1111)); got != 15 {
		t.Fatalf("%d join trees over 4 sources, want 15", got)
	}
	for seed := int64(1); seed <= instances; seed++ {
		rng := stats.NewRand(seed)
		n := 4 + rng.Intn(9)
		g := netgraph.Random(n, 2.5, netgraph.CostRange{Lo: 1, Hi: 20}, netgraph.CostRange{Lo: 1, Hi: 1}, rng)
		cat := query.NewCatalog(0.01)
		ids := make([]query.StreamID, 6)
		for i := range ids {
			ids[i] = cat.Add("s", 1+99*rng.Float64(), netgraph.NodeID(rng.Intn(n)))
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				if rng.Intn(3) > 0 {
					cat.SetSelectivity(ids[i], ids[j], math.Pow(10, -3*rng.Float64()))
				}
			}
		}
		k := 2 + rng.Intn(3)
		perm := rng.Perm(len(ids))
		srcs := make([]query.StreamID, k)
		for i := range srcs {
			srcs[i] = ids[perm[i]]
		}
		q, err := query.NewQuery(int(seed), srcs, netgraph.NodeID(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.OptimalOpts(g, g.ShortestPaths(netgraph.MetricCost), cat, q, nil, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := oracleOptimum(g, cat, q)
		if math.Abs(res.Cost-want) > 1e-9*math.Abs(want) {
			t.Errorf("seed %d (N=%d, K=%d): Optimal costs %.12g, the oracle %.12g", seed, n, k, res.Cost, want)
		}
	}
}
