package netgraph

import (
	"math/rand"
)

// Grid generates a rows×cols mesh with uniform-random link parameters —
// the classic data-center-floor topology for robustness studies.
func Grid(rows, cols int, costs, delay CostRange, rng *rand.Rand) *Graph {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddLink(id(r, c), id(r, c+1), costs.draw(rng), delay.draw(rng))
			}
			if r+1 < rows {
				g.MustAddLink(id(r, c), id(r+1, c), costs.draw(rng), delay.draw(rng))
			}
		}
	}
	return g
}

// ScaleFree generates a Barabási–Albert preferential-attachment graph:
// each new node attaches m links to existing nodes with probability
// proportional to their degree, producing the heavy-tailed hub structure
// of real overlay networks.
func ScaleFree(n, m int, costs, delay CostRange, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	g := New(n)
	if n == 0 {
		return g
	}
	// Seed clique of m+1 nodes (or all of them for tiny n).
	seed := m + 1
	if seed > n {
		seed = n
	}
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			g.MustAddLink(NodeID(i), NodeID(j), costs.draw(rng), delay.draw(rng))
		}
	}
	// Degree-weighted target list: each link endpoint appears once.
	var targets []NodeID
	for _, l := range g.Links() {
		targets = append(targets, l.A, l.B)
	}
	for v := seed; v < n; v++ {
		attached := map[NodeID]bool{}
		for len(attached) < m {
			var to NodeID
			if len(targets) == 0 {
				to = NodeID(rng.Intn(v))
			} else {
				to = targets[rng.Intn(len(targets))]
			}
			if int(to) >= v || attached[to] {
				// Resample; fall back to uniform when unlucky repeatedly.
				to = NodeID(rng.Intn(v))
				if attached[to] {
					continue
				}
			}
			attached[to] = true
			g.MustAddLink(NodeID(v), to, costs.draw(rng), delay.draw(rng))
			targets = append(targets, NodeID(v), to)
		}
	}
	return g
}
