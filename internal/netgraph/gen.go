package netgraph

import (
	"fmt"
	"math/rand"
)

// CostRange is a closed interval from which link parameters are drawn
// uniformly at random.
type CostRange struct{ Lo, Hi float64 }

func (r CostRange) draw(rng *rand.Rand) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// TransitStubConfig parameterizes the transit-stub topology generator, a
// from-scratch reimplementation of the GT-ITM internetwork model used in
// the paper: a backbone ("transit") domain of well-connected expensive
// links, with several cheap "stub" (intranet) domains hanging off each
// transit node.
type TransitStubConfig struct {
	// TotalNodes is the exact number of nodes to generate (transit plus
	// stub). Must be at least TransitNodes+1.
	TotalNodes int
	// TransitNodes is the size of the single transit (backbone) domain.
	TransitNodes int
	// StubsPerTransit is the number of stub domains attached to each
	// transit node. Stub nodes are distributed round-robin across all
	// stub domains so that TotalNodes is hit exactly.
	StubsPerTransit int
}

// extraStubEdgeProb is the probability of adding each candidate non-tree
// edge inside a stub domain, giving intranets some mesh.
const extraStubEdgeProb = 0.15

// The transit-stub link parameters. transitCost, stubCost and gatewayCost
// are per-byte link cost ranges: the paper assigns stub links lower cost
// than transit links ("transmission within an intranet being far cheaper
// than long-haul links"). linkDelay is the propagation-delay range applied
// to every link (the Emulab testbed used 1-60 ms).
var (
	transitCost = CostRange{10, 20}
	stubCost    = CostRange{1, 2}
	gatewayCost = CostRange{4, 8}
	linkDelay   = CostRange{0.001, 0.060}
)

// DefaultTransitStub returns the configuration used for the paper's
// standard Internet-style topology scaled to n total nodes: one transit
// domain of 4 nodes and 4 stub domains per transit node.
func DefaultTransitStub(n int) TransitStubConfig {
	return TransitStubConfig{TotalNodes: n, TransitNodes: 4, StubsPerTransit: 4}
}

// TransitStub generates a connected transit-stub topology. The same seed
// yields the same topology.
func TransitStub(cfg TransitStubConfig, rng *rand.Rand) (*Graph, error) {
	if cfg.TransitNodes < 1 {
		return nil, fmt.Errorf("netgraph: TransitNodes must be >= 1, got %d", cfg.TransitNodes)
	}
	if cfg.StubsPerTransit < 1 {
		return nil, fmt.Errorf("netgraph: StubsPerTransit must be >= 1, got %d", cfg.StubsPerTransit)
	}
	if cfg.TotalNodes < cfg.TransitNodes+1 {
		return nil, fmt.Errorf("netgraph: TotalNodes %d too small for %d transit nodes",
			cfg.TotalNodes, cfg.TransitNodes)
	}
	g := New(cfg.TotalNodes)
	t := cfg.TransitNodes

	// Transit domain: ring plus random chords for backbone redundancy.
	for i := 0; i < t-1; i++ {
		g.MustAddLink(NodeID(i), NodeID(i+1), transitCost.draw(rng), linkDelay.draw(rng))
	}
	if t > 2 {
		g.MustAddLink(NodeID(t-1), NodeID(0), transitCost.draw(rng), linkDelay.draw(rng))
	}
	for i := 0; i < t; i++ {
		for j := i + 2; j < t; j++ {
			if !g.HasLink(NodeID(i), NodeID(j)) && rng.Float64() < 0.25 {
				g.MustAddLink(NodeID(i), NodeID(j), transitCost.draw(rng), linkDelay.draw(rng))
			}
		}
	}

	// Distribute the remaining nodes round-robin across the stub domains.
	nStubDomains := t * cfg.StubsPerTransit
	domains := make([][]NodeID, nStubDomains)
	for id := t; id < cfg.TotalNodes; id++ {
		d := (id - t) % nStubDomains
		domains[d] = append(domains[d], NodeID(id))
	}

	for d, members := range domains {
		if len(members) == 0 {
			continue
		}
		transit := NodeID(d / cfg.StubsPerTransit)
		// Random spanning tree inside the stub domain.
		for i := 1; i < len(members); i++ {
			parent := members[rng.Intn(i)]
			g.MustAddLink(parent, members[i], stubCost.draw(rng), linkDelay.draw(rng))
		}
		// Extra mesh edges.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if !g.HasLink(members[i], members[j]) && rng.Float64() < extraStubEdgeProb {
					g.MustAddLink(members[i], members[j], stubCost.draw(rng), linkDelay.draw(rng))
				}
			}
		}
		// Gateway link from a random stub node to the transit node.
		gw := members[rng.Intn(len(members))]
		g.MustAddLink(transit, gw, gatewayCost.draw(rng), linkDelay.draw(rng))
	}
	return g, nil
}

// MustTransitStub is TransitStub with the default configuration for n
// nodes, panicking on configuration errors (impossible for n >= 5).
func MustTransitStub(n int, rng *rand.Rand) *Graph {
	g, err := TransitStub(DefaultTransitStub(n), rng)
	if err != nil {
		panic(err)
	}
	return g
}

// Random generates a connected random graph with n nodes and roughly
// avgDeg average degree: a random spanning tree plus uniform extra edges.
// Link costs are drawn from costs and delays from delay.
func Random(n int, avgDeg float64, costs, delay CostRange, rng *rand.Rand) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := NodeID(perm[rng.Intn(i)])
		b := NodeID(perm[i])
		g.MustAddLink(a, b, costs.draw(rng), delay.draw(rng))
	}
	extra := int(avgDeg*float64(n)/2) - (n - 1)
	for tries := 0; extra > 0 && tries < 20*n; tries++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b || g.HasLink(a, b) {
			continue
		}
		g.MustAddLink(a, b, costs.draw(rng), delay.draw(rng))
		extra--
	}
	return g
}

// Line generates a path graph 0-1-2-...-(n-1) with unit cost and the given
// delay on every link. Useful in tests where distances are obvious.
func Line(n int, delay float64) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddLink(NodeID(i), NodeID(i+1), 1, delay)
	}
	return g
}

// Star generates a star with node 0 at the center, unit cost links.
func Star(n int, delay float64) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddLink(0, NodeID(i), 1, delay)
	}
	return g
}
