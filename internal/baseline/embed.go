package baseline

import (
	"math"
	"math/rand"

	"hnp/internal/netgraph"
)

// Point3 is a coordinate in the 3-dimensional cost space used by the
// Relaxation algorithm.
type Point3 [3]float64

func (p Point3) sub(o Point3) Point3 { return Point3{p[0] - o[0], p[1] - o[1], p[2] - o[2]} }
func (p Point3) add(o Point3) Point3 { return Point3{p[0] + o[0], p[1] + o[1], p[2] + o[2]} }
func (p Point3) scale(f float64) Point3 {
	return Point3{p[0] * f, p[1] * f, p[2] * f}
}
func (p Point3) norm() float64 {
	return math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
}

// Dist returns the Euclidean distance between two points.
func Dist3(a, b Point3) float64 { return a.sub(b).norm() }

// Embedding is a spring-relaxed placement of every network node in a 3-D
// cost space, so that Euclidean distances approximate traversal costs —
// the substrate the Relaxation algorithm plans in.
type Embedding struct {
	Pos []Point3
}

// Embed computes a 3-D embedding of the network by Vivaldi-style spring
// relaxation against shortest-path costs: rounds × N random node pairs
// pull or push each other until coordinate distances track path costs.
func Embed(g *netgraph.Graph, paths *netgraph.Paths, rounds int, rng *rand.Rand) *Embedding {
	n := g.NumNodes()
	e := &Embedding{Pos: make([]Point3, n)}
	if n == 0 {
		return e
	}
	// Seed positions randomly in a box scaled to the network diameter.
	diam := 1.0
	for v := 0; v < n; v++ {
		if d := paths.Eccentricity(netgraph.NodeID(v)); d > diam {
			diam = d
		}
	}
	for i := range e.Pos {
		for d := 0; d < 3; d++ {
			e.Pos[i][d] = (rng.Float64() - 0.5) * diam
		}
	}
	if n == 1 {
		return e
	}
	for r := 0; r < rounds; r++ {
		step := 0.5 * (1 - float64(r)/float64(rounds))
		for it := 0; it < 8*n; it++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				continue
			}
			target := paths.Dist(netgraph.NodeID(a), netgraph.NodeID(b))
			if math.IsInf(target, 1) {
				continue
			}
			diff := e.Pos[b].sub(e.Pos[a])
			d := diff.norm()
			var dir Point3
			if d < 1e-12 {
				dir = Point3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}
				d = dir.norm()
				if d < 1e-12 {
					continue
				}
			} else {
				dir = diff
			}
			// Move both endpoints half the error along the connecting line.
			force := dir.scale(step * (d - target) / d / 2)
			e.Pos[a] = e.Pos[a].add(force)
			e.Pos[b] = e.Pos[b].sub(force)
		}
	}
	return e
}

// Nearest returns the node whose embedded coordinate is closest to p.
func (e *Embedding) Nearest(p Point3) netgraph.NodeID {
	best, bestD := netgraph.NodeID(0), math.Inf(1)
	for v, pos := range e.Pos {
		if d := Dist3(pos, p); d < bestD {
			best, bestD = netgraph.NodeID(v), d
		}
	}
	return best
}
