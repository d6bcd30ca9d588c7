package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"hnp/internal/ads"
	"hnp/internal/cluster"
	"hnp/internal/core"
	"hnp/internal/netgraph"
	"hnp/internal/query"
)

// Zones is a flat partition of the network into placement zones, the
// granularity the In-network algorithm plans at.
type Zones struct {
	// Assign maps each node to its zone.
	Assign []int
	// Reps holds one representative (medoid) node per zone.
	Reps []netgraph.NodeID
	// Members lists each zone's nodes.
	Members [][]netgraph.NodeID
}

// MakeZones partitions the network into nZones zones by k-medoids over
// path costs.
func MakeZones(g *netgraph.Graph, paths *netgraph.Paths, nZones int, rng *rand.Rand) (*Zones, error) {
	n := g.NumNodes()
	if nZones < 1 {
		return nil, fmt.Errorf("baseline: nZones must be >= 1")
	}
	if nZones > n {
		nZones = n
	}
	maxSize := (n + nZones - 1) / nZones
	// Allow slack so k clusters can always hold n items.
	res, err := cluster.KMedoids(n, nZones, maxSize+nZones, func(i, j int) float64 {
		return paths.Dist(netgraph.NodeID(i), netgraph.NodeID(j))
	}, rng)
	if err != nil {
		return nil, err
	}
	z := &Zones{Assign: res.Assign, Members: make([][]netgraph.NodeID, len(res.Medoids))}
	for _, m := range res.Medoids {
		z.Reps = append(z.Reps, netgraph.NodeID(m))
	}
	for node, c := range res.Assign {
		z.Members[c] = append(z.Members[c], netgraph.NodeID(node))
	}
	return z, nil
}

// InNetwork implements the zone-based network-aware placement in the
// spirit of Ahmad & Çetintemel (VLDB 2004) as the paper compared against:
// a phased approach that fixes the selectivity-optimal tree, then places
// each operator bottom-up at the representative of the best zone. The
// placement objective for an operator is the cost of pulling its
// children's streams in plus pushing its output toward the sink;
// placement granularity is the zone, which is what the paper's cluster
// experiments show costs efficiency. Reuse is post-hoc, as in the other
// phased baselines.
func InNetwork(g *netgraph.Graph, paths *netgraph.Paths, zones *Zones,
	cat *query.Catalog, q *query.Query, reg *ads.Registry) (core.Result, error) {
	rt := query.BuildRates(cat, q)
	tree, err := SelectivityTree(core.BaseInputs(cat, q, rt), rt, q.All())
	if err != nil {
		return core.Result{}, fmt.Errorf("in-network: %w", err)
	}
	if reg != nil {
		tree = reuseSubtrees(tree, q, reg, paths, q.Sink)
	}

	considered := 0
	// A zone-granular scheme knows base streams' advertised locations
	// exactly, but tracks in-flight intermediate results only at zone
	// granularity: an operator's output is "in zone Z", i.e. at Z's
	// representative, for downstream placement decisions.
	seenAt := func(n *query.PlanNode) netgraph.NodeID {
		if n.IsLeaf() {
			return n.Loc
		}
		return zones.Reps[zones.Assign[n.Loc]]
	}
	var place func(n *query.PlanNode) *query.PlanNode
	place = func(n *query.PlanNode) *query.PlanNode {
		if n.IsLeaf() {
			return query.Leaf(*n.In)
		}
		l := place(n.L)
		r := place(n.R)
		lAt, rAt := seenAt(l), seenAt(r)
		objective := func(v netgraph.NodeID) float64 {
			return l.Rate*paths.Dist(lAt, v) +
				r.Rate*paths.Dist(rAt, v) +
				n.Rate*paths.Dist(v, q.Sink)
		}
		// Phase 1: the algorithm plans at zone granularity — pick the best
		// zone via its representative under the full objective.
		bestZone, bestObj := 0, math.Inf(1)
		for zi, rep := range zones.Reps {
			considered++
			if o := objective(rep); o < bestObj {
				bestZone, bestObj = zi, o
			}
		}
		// Phase 2: a zone-based scheme routes traffic through the zone
		// center, so the refinement only considers the center's immediate
		// vicinity — the representative and its in-zone neighbors — not
		// arbitrary zone-edge nodes.
		rep := zones.Reps[bestZone]
		cands := []netgraph.NodeID{rep}
		for _, nb := range g.Neighbors(rep) {
			if zones.Assign[nb] == bestZone {
				cands = append(cands, nb)
			}
		}
		bestNode, bestPull := rep, math.Inf(1)
		for _, v := range cands {
			considered++
			pull := l.Rate*paths.Dist(lAt, v) + r.Rate*paths.Dist(rAt, v) +
				n.Rate*paths.Dist(v, q.Sink)
			if pull < bestPull {
				bestNode, bestPull = v, pull
			}
		}
		return query.Join(l, r, bestNode, n.Rate)
	}
	placed := place(tree)
	if err := placed.Validate(); err != nil {
		return core.Result{}, fmt.Errorf("in-network: invalid plan: %w", err)
	}
	return core.Result{
		Plan:            placed,
		Cost:            placed.Cost(paths.Dist, q.Sink),
		PlansConsidered: float64(considered),
		ClustersPlanned: len(zones.Reps),
		LevelsVisited:   1,
	}, nil
}
