package netgraph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Metric selects which link weight shortest paths minimize.
type Metric int

const (
	// MetricCost minimizes the summed per-byte transfer cost. Deployment
	// cost calculations use this metric.
	MetricCost Metric = iota
	// MetricDelay minimizes summed propagation delay. The IFLOW runtime
	// routes protocol messages along delay-shortest paths.
	MetricDelay
)

func (m Metric) String() string {
	switch m {
	case MetricCost:
		return "cost"
	case MetricDelay:
		return "delay"
	}
	return "unknown"
}

// Paths is an immutable all-pairs shortest path snapshot of a graph under
// one metric. It remembers the graph version it was computed against.
//
// Both tables live in single contiguous n×n slabs (distSlab/nextSlab);
// the dist/next row headers slice into them. One slab keeps the whole
// snapshot in as few cache lines as possible and lets Dist compute its
// answer with plain index arithmetic instead of chasing a row pointer.
type Paths struct {
	metric   Metric
	version  int
	n        int
	dist     [][]float64
	next     [][]int32 // next[a][b]: first hop from a toward b, -1 if unreachable
	distSlab []float64
	nextSlab []int32

	// scratch carries the delta-refresh working set along a chain of
	// exclusively-owned snapshots (see RefreshFrom); nil for snapshots
	// that have never been delta-refreshed with a recycle target.
	scratch *refreshScratch
}

// newPaths allocates a snapshot shell with its slabs and row headers.
func newPaths(m Metric, version, n int) *Paths {
	p := &Paths{metric: m, version: version, n: n,
		dist: make([][]float64, n), next: make([][]int32, n),
		distSlab: make([]float64, n*n), nextSlab: make([]int32, n*n)}
	for v := 0; v < n; v++ {
		p.dist[v] = p.distSlab[v*n : (v+1)*n : (v+1)*n]
		p.next[v] = p.nextSlab[v*n : (v+1)*n : (v+1)*n]
	}
	return p
}

type pqItem struct {
	node NodeID
	dist float64
}

// pq is a concrete binary min-heap over pqItem, ordered by dist. It
// replicates container/heap's sift order exactly — same comparisons, same
// swaps, ties keep the left child and pop the root via a swap with the
// last element — so the node visit order (and therefore every dist and
// first-hop table) is bit-identical to the previous interface-boxed
// implementation. Being concrete, push/pop compile to direct calls with no
// interface boxing and no per-item allocation.
type pq []pqItem

func (q pq) Len() int { return len(q) }

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	// Sift up (container/heap "up").
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n] (container/heap "down").
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child, kept on ties
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

func (g *Graph) weight(e halfEdge, m Metric) float64 {
	if m == MetricDelay {
		return e.delay
	}
	return e.cost
}

// dijkstraInto runs Dijkstra from src into caller-provided dist/firstHop
// slices (length NumNodes), reusing q as scratch so hot callers avoid
// re-allocating the priority queue per source.
func (g *Graph) dijkstraInto(src NodeID, m Metric, dist []float64, firstHop []int32, q *pq) {
	for i := range dist {
		dist[i] = math.Inf(1)
		firstHop[i] = -1
	}
	dist[src] = 0
	*q = append((*q)[:0], pqItem{src, 0})
	for q.Len() > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + g.weight(e, m)
			if nd < dist[e.to] {
				dist[e.to] = nd
				if it.node == src {
					firstHop[e.to] = int32(e.to)
				} else {
					firstHop[e.to] = firstHop[it.node]
				}
				q.push(pqItem{e.to, nd})
			}
		}
	}
}

// ShortestPaths computes an all-pairs snapshot under metric m by running
// Dijkstra from every node (the graphs here are sparse, so this beats
// Floyd-Warshall for the 1024-node topologies in the scalability study).
// The per-source searches are independent, so they fan out over a bounded
// worker pool (GOMAXPROCS workers, each with a reusable priority queue);
// every worker writes only its own rows, and each row is identical to what
// the serial computation produces, so results are bit-identical regardless
// of parallelism.
func (g *Graph) ShortestPaths(m Metric) *Paths {
	p := newPaths(m, g.version, len(g.adj))
	g.fillPaths(p)
	return p
}

// fillPaths fills every row of an allocated snapshot shell (fresh or
// recycled) with the worker-pool all-pairs computation described on
// ShortestPaths. The shell's metric/version/n must already be set.
func (g *Graph) fillPaths(p *Paths) {
	n := len(g.adj)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		g.shortestPathsInto(p)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q pq
			for {
				v := int(next.Add(1)) - 1
				if v >= n {
					return
				}
				// Rows are disjoint slab regions; each worker writes
				// only the rows it claimed.
				g.dijkstraInto(NodeID(v), p.metric, p.dist[v], p.next[v], &q)
			}
		}()
	}
	wg.Wait()
}

// shortestPathsInto fills an all-pairs snapshot serially; the reference
// implementation the parallel path is checked against.
func (g *Graph) shortestPathsInto(p *Paths) {
	n := len(g.adj)
	var q pq
	for v := 0; v < n; v++ {
		g.dijkstraInto(NodeID(v), p.metric, p.dist[v], p.next[v], &q)
	}
}

// Metric returns the metric the snapshot was computed under.
func (p *Paths) Metric() Metric { return p.metric }

// Version returns the graph version the snapshot was computed against.
func (p *Paths) Version() int { return p.version }

// StaleFor reports whether the snapshot no longer reflects g: the graph
// has been mutated (version bumped) since the snapshot was computed, or
// the snapshot covers a different node count. Consumers that cache a
// *Paths must either recompute when this returns true or refuse to plan
// against it — costs computed from a stale snapshot are silently wrong.
func (p *Paths) StaleFor(g *Graph) bool {
	return p.version != g.version || p.n != len(g.adj)
}

// Dist returns the shortest-path distance from a to b (+Inf if unreachable).
// The lookup is a single index into the contiguous slab — no row pointer
// chase, no allocation — because it is the innermost probe of every
// planner.
func (p *Paths) Dist(a, b NodeID) float64 { return p.distSlab[int(a)*p.n+int(b)] }

// Row returns the distances from a to every node, indexed by NodeID, for
// callers that read many distances out of one source (the planners gather
// a cluster's site-to-site block this way). The slice aliases the
// snapshot: read-only.
func (p *Paths) Row(a NodeID) []float64 { return p.dist[a] }

// Reachable reports whether b is reachable from a.
func (p *Paths) Reachable(a, b NodeID) bool { return !math.IsInf(p.dist[a][b], 1) }

// Path returns the node sequence of a shortest a→b path, including both
// endpoints. It returns nil if b is unreachable from a.
func (p *Paths) Path(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	if p.next[a][b] < 0 {
		return nil
	}
	out := []NodeID{a}
	cur := a
	for cur != b {
		cur = NodeID(p.next[cur][b])
		out = append(out, cur)
		if len(out) > p.n {
			// Defensive: corrupt next-hop table would loop forever.
			panic("netgraph: next-hop cycle")
		}
	}
	return out
}

// Hops returns the number of links on a shortest a→b path, or -1 if
// unreachable.
func (p *Paths) Hops(a, b NodeID) int {
	path := p.Path(a, b)
	if path == nil {
		return -1
	}
	return len(path) - 1
}

// Eccentricity returns the maximum distance from v to any reachable node.
func (p *Paths) Eccentricity(v NodeID) float64 {
	max := 0.0
	for u := 0; u < p.n; u++ {
		if d := p.dist[v][u]; !math.IsInf(d, 1) && d > max {
			max = d
		}
	}
	return max
}

// Medoid returns the member of set that minimizes the sum of distances to
// all other members — the "most central" node, used as cluster coordinator.
// It panics on an empty set.
func (p *Paths) Medoid(set []NodeID) NodeID {
	if len(set) == 0 {
		panic("netgraph: medoid of empty set")
	}
	best, bestSum := set[0], math.Inf(1)
	for _, c := range set {
		sum := 0.0
		for _, o := range set {
			sum += p.dist[c][o]
		}
		if sum < bestSum {
			best, bestSum = c, sum
		}
	}
	return best
}

// MaxPairwise returns the maximum pairwise distance within set (0 for sets
// of size < 2). Hierarchy levels use it as the intra-cluster traversal cost
// bound d_i of Theorem 1.
func (p *Paths) MaxPairwise(set []NodeID) float64 {
	max := 0.0
	for i, a := range set {
		for _, b := range set[i+1:] {
			if d := p.dist[a][b]; d > max {
				max = d
			}
		}
	}
	return max
}
