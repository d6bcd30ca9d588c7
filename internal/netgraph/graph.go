// Package netgraph provides the physical network substrate used by the
// stream-query optimizers: a weighted undirected graph whose links carry a
// per-byte transfer cost and a propagation delay, shortest-path machinery,
// and synthetic topology generators modeled on the GT-ITM transit-stub
// internetwork model the paper evaluates on.
package netgraph

import (
	"fmt"
	"sort"
)

// NodeID identifies a physical network node. IDs are dense: a graph with n
// nodes uses IDs 0..n-1.
type NodeID int

// Link is an undirected physical link between two nodes.
type Link struct {
	A, B NodeID
	// Cost is the cost of transferring one unit of data (byte) across the
	// link. Deployment cost of a query plan is data rate times path cost.
	Cost float64
	// Delay is the one-way propagation delay in seconds, used by the IFLOW
	// runtime to simulate protocol message latency.
	Delay float64
}

type halfEdge struct {
	to    NodeID
	cost  float64
	delay float64
}

// EdgeDelta records one weight mutation of an existing link: the link's
// endpoints, which metric changed, and the weight before and after. The
// graph keeps a bounded log of these so path snapshots can repair
// themselves incrementally instead of recomputing all pairs from scratch.
type EdgeDelta struct {
	A, B     NodeID // normalized A < B
	Metric   Metric
	Old, New float64
}

// maxDeltaLog bounds the mutation log. A snapshot older than the log's
// horizon simply falls back to a full recompute, so the cap trades a
// little incremental coverage for bounded memory.
const maxDeltaLog = 1024

// Graph is a weighted undirected network graph. The zero value is not
// usable; create graphs with New.
type Graph struct {
	adj     [][]halfEdge
	nLinks  int
	version int // bumped on every mutation so path caches can detect staleness

	// log holds one EdgeDelta per weight-only mutation since logBase:
	// log[i] is the mutation that took the graph from version logBase+i
	// to logBase+i+1. Structural mutations (AddLink) clear the log — a
	// snapshot from before a structural change must recompute fully.
	log     []EdgeDelta
	logBase int
}

// New returns an empty graph with n nodes and no links.
func New(n int) *Graph {
	if n < 0 {
		panic("netgraph: negative node count")
	}
	return &Graph{adj: make([][]halfEdge, n)}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return g.nLinks }

// Version returns a counter that is incremented by every mutation. Path
// snapshots record the version they were computed against.
func (g *Graph) Version() int { return g.version }

func (g *Graph) check(v NodeID) error {
	if v < 0 || int(v) >= len(g.adj) {
		return fmt.Errorf("netgraph: node %d out of range [0,%d)", v, len(g.adj))
	}
	return nil
}

// AddLink adds an undirected link between a and b. It is an error to link a
// node to itself, to use an out-of-range node, to use a non-positive cost,
// or to add a duplicate link.
func (g *Graph) AddLink(a, b NodeID, cost, delay float64) error {
	if err := g.check(a); err != nil {
		return err
	}
	if err := g.check(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("netgraph: self-link at node %d", a)
	}
	if cost <= 0 {
		return fmt.Errorf("netgraph: non-positive link cost %g", cost)
	}
	if delay < 0 {
		return fmt.Errorf("netgraph: negative link delay %g", delay)
	}
	if g.HasLink(a, b) {
		return fmt.Errorf("netgraph: duplicate link %d-%d", a, b)
	}
	g.adj[a] = append(g.adj[a], halfEdge{b, cost, delay})
	g.adj[b] = append(g.adj[b], halfEdge{a, cost, delay})
	g.nLinks++
	g.version++
	// Structural change: weight deltas cannot describe a new link, so
	// snapshots from before this version must recompute fully.
	g.log = g.log[:0]
	g.logBase = g.version
	return nil
}

// recordDelta appends one weight mutation to the bounded log and bumps the
// version. Call after the adjacency lists have been updated.
func (g *Graph) recordDelta(a, b NodeID, m Metric, old, new float64) {
	if a > b {
		a, b = b, a
	}
	if len(g.log) >= maxDeltaLog {
		// Drop the oldest half; snapshots older than the new horizon
		// fall back to full recompute.
		drop := len(g.log) / 2
		n := copy(g.log, g.log[drop:])
		g.log = g.log[:n]
		g.logBase += drop
	}
	g.log = append(g.log, EdgeDelta{A: a, B: b, Metric: m, Old: old, New: new})
	g.version++
}

// deltasSince returns the weight mutations that took the graph from
// version v to its current version, oldest first, and whether the log
// still covers that span. The slice aliases the graph's internal log and
// is only valid until the next mutation.
func (g *Graph) deltasSince(v int) ([]EdgeDelta, bool) {
	if v == g.version {
		return nil, true
	}
	if v < g.logBase || v > g.version {
		return nil, false
	}
	return g.log[v-g.logBase:], true
}

// MustAddLink is AddLink but panics on error. Topology generators use it
// for links that are correct by construction.
func (g *Graph) MustAddLink(a, b NodeID, cost, delay float64) {
	if err := g.AddLink(a, b, cost, delay); err != nil {
		panic(err)
	}
}

// half returns the a→b half of the a-b link, or nil if there is none.
func (g *Graph) half(a, b NodeID) *halfEdge {
	if a < 0 || int(a) >= len(g.adj) {
		return nil
	}
	for i := range g.adj[a] {
		if g.adj[a][i].to == b {
			return &g.adj[a][i]
		}
	}
	return nil
}

// HasLink reports whether an a-b link exists.
func (g *Graph) HasLink(a, b NodeID) bool { return g.half(a, b) != nil }

// LinkCost returns the cost of the direct a-b link, or false if absent.
func (g *Graph) LinkCost(a, b NodeID) (float64, bool) {
	if e := g.half(a, b); e != nil {
		return e.cost, true
	}
	return 0, false
}

// SetLinkCost updates the cost of an existing link in both directions. It
// is used by the adaptive runtime to model changing network conditions.
// Setting a link to its current cost is a no-op: the version is not
// bumped, so existing path snapshots stay valid.
func (g *Graph) SetLinkCost(a, b NodeID, cost float64) error {
	if cost <= 0 {
		return fmt.Errorf("netgraph: non-positive link cost %g", cost)
	}
	e := g.half(a, b)
	if e == nil {
		return fmt.Errorf("netgraph: no link %d-%d", a, b)
	}
	if old := e.cost; cost != old {
		e.cost, g.half(b, a).cost = cost, cost
		g.recordDelta(a, b, MetricCost, old, cost)
	}
	return nil
}

// SetLinkDelay updates the propagation delay of an existing link in both
// directions. Like SetLinkCost, setting the current value is a no-op.
func (g *Graph) SetLinkDelay(a, b NodeID, delay float64) error {
	if delay < 0 {
		return fmt.Errorf("netgraph: negative link delay %g", delay)
	}
	e := g.half(a, b)
	if e == nil {
		return fmt.Errorf("netgraph: no link %d-%d", a, b)
	}
	if old := e.delay; delay != old {
		e.delay, g.half(b, a).delay = delay, delay
		g.recordDelta(a, b, MetricDelay, old, delay)
	}
	return nil
}

// Neighbors returns the IDs adjacent to v in insertion order.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i] = e.to
	}
	return out
}

// Degree returns the number of links incident to v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Links returns all undirected links, each reported once with A < B, sorted
// by (A, B) for deterministic iteration.
func (g *Graph) Links() []Link {
	out := make([]Link, 0, g.nLinks)
	for a := range g.adj {
		for _, e := range g.adj[a] {
			if NodeID(a) < e.to {
				out = append(out, Link{NodeID(a), e.to, e.cost, e.delay})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Connected reports whether every node is reachable from node 0. The empty
// graph is connected.
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == n
}

// Clone returns a deep copy of the graph, including the mutation log so
// snapshots of the original can delta-refresh against the clone.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]halfEdge, len(g.adj)), nLinks: g.nLinks, version: g.version,
		log: append([]EdgeDelta(nil), g.log...), logBase: g.logBase}
	for i, es := range g.adj {
		c.adj[i] = append([]halfEdge(nil), es...)
	}
	return c
}
