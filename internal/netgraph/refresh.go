package netgraph

import (
	"fmt"
	"math"
)

// This file implements incremental all-pairs repair: instead of recomputing
// every source row after a link-weight change, RefreshFrom consults the
// graph's bounded mutation log, flags only the source rows whose shortest
// paths could have moved, and re-runs Dijkstra for just those rows into a
// recycled slab. The repaired snapshot is bit-identical — every dist value
// and every first-hop tie-break — to a fresh ShortestPaths; the test and
// why unaffected rows keep identical first hops are in DESIGN "Affected-row
// test". Incremental repair is the only refresh; the full recompute is its
// fallback and, as Graph.ShortestPaths, the oracle the property, fuzz and
// chaos tests compare every repair against.

// RefreshMode classifies what a RefreshFrom call had to do.
type RefreshMode uint8

const (
	// RefreshNoop: the snapshot was already current; it was returned as is.
	RefreshNoop RefreshMode = iota
	// RefreshIncremental: only the affected source rows were recomputed.
	RefreshIncremental
	// RefreshFull: every row was recomputed (log exhausted, structural
	// change, or too many rows affected).
	RefreshFull
)

func (m RefreshMode) String() string {
	switch m {
	case RefreshNoop:
		return "noop"
	case RefreshIncremental:
		return "incremental"
	case RefreshFull:
		return "full"
	}
	return "unknown"
}

// RefreshStats reports the scope of one RefreshFrom call.
type RefreshStats struct {
	Mode RefreshMode
	// EdgesChanged is the number of distinct links whose weight (under the
	// snapshot's metric) differs between the old and new graph versions,
	// after coalescing the mutation log (an exact revert counts as zero).
	// Zero for noop and full refreshes.
	EdgesChanged int
	// RowsRecomputed is the number of source rows re-run through Dijkstra:
	// 0 for noop, the affected count for incremental, n for full.
	RowsRecomputed int
	// Rows lists the recomputed source rows for an incremental refresh, in
	// ascending order, so consumers (hierarchy rebind) can patch only
	// entries touching these nodes. Nil for noop and full refreshes. The
	// slice is scratch-backed: it is valid only until the next RefreshFrom
	// call on the returned snapshot's chain.
	Rows []NodeID
}

// refreshScratch is the reusable working set of a delta refresh. It rides
// on the snapshot chain (moved from the refreshed snapshot to its
// replacement) so steady-state refreshes allocate nothing.
type refreshScratch struct {
	q     pq
	rows  []NodeID
	edges []EdgeDelta
}

// fullRefreshDen is the affected-fraction fallback threshold: if more than
// n/fullRefreshDen source rows are affected, a full parallel recompute is
// cheaper than serially repairing rows one by one.
const fullRefreshDen = 4

// RefreshFrom returns a snapshot current for g, repairing p incrementally
// when the graph's mutation log permits. If p is already current it is
// returned unchanged. Otherwise a new snapshot is produced — p itself is
// never mutated, so concurrent readers of p stay safe — by copying p's
// tables and re-running Dijkstra only for affected source rows, falling
// back to a full parallel recompute when the log no longer covers p's
// version or the affected fraction exceeds 1/4.
//
// recycle, if non-nil, donates its slabs to the result instead of
// allocating fresh ones. Passing a recycle target asserts the caller
// exclusively owns both p's and recycle's refresh chain (no other
// goroutine touches them); callers refreshing a shared snapshot must pass
// nil. The idiom is a two-snapshot ping-pong, after which steady-state
// incremental refreshes are allocation-free:
//
//	cur, spare := g.ShortestPaths(m), (*Paths)(nil)
//	...
//	old := cur
//	cur, stats = cur.RefreshFrom(g, spare)
//	if cur != old {
//		spare = old
//	}
//
// The result is guaranteed bit-identical (dist and first-hop tables) to
// g.ShortestPaths(p.Metric()); the property is enforced by fuzz and chaos
// equivalence tests.
func (p *Paths) RefreshFrom(g *Graph, recycle *Paths) (*Paths, RefreshStats) {
	if !p.StaleFor(g) {
		return p, RefreshStats{Mode: RefreshNoop}
	}
	if recycle == p {
		recycle = nil // cannot rebuild in place: p may have readers
	}
	// The scratch travels with the exclusively-owned chain only; shared
	// snapshots (recycle == nil) must not be mutated, even a scratch field.
	var sc *refreshScratch
	if recycle != nil {
		if sc = p.scratch; sc != nil {
			p.scratch = nil
		} else if sc = recycle.scratch; sc != nil {
			recycle.scratch = nil
		}
	}
	if sc == nil {
		sc = &refreshScratch{}
	}

	n := len(g.adj)
	var deltas []EdgeDelta
	ok := false
	if n == p.n {
		deltas, ok = g.deltasSince(p.version)
	}
	if !ok {
		return p.fullRefresh(g, recycle, sc)
	}

	// Coalesce the log per link: only the weight before the first and
	// after the last mutation matter, and a link reverted to its original
	// weight drops out entirely.
	edges := sc.edges[:0]
	for _, d := range deltas {
		if d.Metric != p.metric {
			continue
		}
		merged := false
		for i := range edges {
			if edges[i].A == d.A && edges[i].B == d.B {
				edges[i].New = d.New
				merged = true
				break
			}
		}
		if !merged {
			edges = append(edges, d)
		}
	}
	kept := edges[:0]
	for _, e := range edges {
		if e.Old != e.New {
			kept = append(kept, e)
		}
	}
	edges = kept
	sc.edges = edges

	// DESIGN "Affected-row test": row src must be recomputed iff
	// some changed link (a,b): old → new satisfies, against src's OLD row,
	//
	//	dist[a]+old == dist[b] or dist[b]+old == dist[a]   (the link lay
	//	    on some old shortest path from src — subpath optimality makes
	//	    this an equality test, and it also catches old ties), or
	//	dist[a]+new <= dist[b] or dist[b]+new <= dist[a]   (the link now
	//	    offers a path at least as good — <= rather than < so that a
	//	    newly created tie, which can flip a first hop without moving
	//	    any distance, still flags the row).
	//
	// Rows failing both tests for every changed link keep exactly their
	// old distances and first hops.
	rows := sc.rows[:0]
	for src := 0; src < n; src++ {
		row := p.dist[src]
		for _, e := range edges {
			da, db := row[e.A], row[e.B]
			if math.IsInf(da, 1) && math.IsInf(db, 1) {
				continue // link unreachable from src; weight is irrelevant
			}
			if da+e.Old == db || db+e.Old == da || da+e.New <= db || db+e.New <= da {
				rows = append(rows, NodeID(src))
				break
			}
		}
	}
	sc.rows = rows

	if len(rows)*fullRefreshDen > n {
		return p.fullRefresh(g, recycle, sc)
	}

	out := p.shellFor(g, recycle)
	copy(out.distSlab, p.distSlab)
	copy(out.nextSlab, p.nextSlab)
	for _, src := range rows {
		g.dijkstraInto(src, p.metric, out.dist[src], out.next[src], &sc.q)
	}
	out.scratch = sc
	return out, RefreshStats{
		Mode:           RefreshIncremental,
		EdgesChanged:   len(edges),
		RowsRecomputed: len(rows),
		Rows:           rows,
	}
}

// fullRefresh recomputes every row into a (possibly recycled) shell.
func (p *Paths) fullRefresh(g *Graph, recycle *Paths, sc *refreshScratch) (*Paths, RefreshStats) {
	out := p.shellFor(g, recycle)
	g.fillPaths(out)
	out.scratch = sc
	return out, RefreshStats{Mode: RefreshFull, RowsRecomputed: out.n}
}

// shellFor returns a snapshot shell sized for g under p's metric, reusing
// recycle's slabs when they fit and allocating otherwise.
func (p *Paths) shellFor(g *Graph, recycle *Paths) *Paths {
	n := len(g.adj)
	if recycle != nil && recycle.n == n {
		recycle.metric = p.metric
		recycle.version = g.version
		return recycle
	}
	return newPaths(p.metric, g.version, n)
}

// DriftLink is the fixture of the drift tests and benchmarks: it finds a
// link whose cost drift has a small blast radius. Every link is probed by
// wiggling its cost to just under its endpoints' path distance (so the
// link carries real shortest paths) and refreshing a throwaway snapshot;
// the link whose two probes repair the fewest rows incrementally wins.
// Leaf links — a degree-1 node's only link sits on every row's path to
// that node — legitimately force full recomputes and are skipped. Every
// probe is reverted, and reverts coalesce out of the delta log, so the
// graph ends unchanged. It returns the link and the wiggle base distance.
func DriftLink(g *Graph) (Link, float64, error) {
	fresh := g.ShortestPaths(MetricCost)
	n := g.NumNodes()
	var best Link
	bestBase, bestRows := 0.0, n
	for _, cand := range g.Links() {
		orig, _ := g.LinkCost(cand.A, cand.B)
		d := fresh.Dist(cand.A, cand.B)
		var probe [2]RefreshStats
		for i, c := range []float64{d * 0.95, d * 0.90} {
			if err := g.SetLinkCost(cand.A, cand.B, c); err != nil {
				return Link{}, 0, err
			}
			_, probe[i] = fresh.RefreshFrom(g, nil)
		}
		if err := g.SetLinkCost(cand.A, cand.B, orig); err != nil {
			return Link{}, 0, err
		}
		rows := max(probe[0].RowsRecomputed, probe[1].RowsRecomputed)
		if probe[0].Mode == RefreshIncremental && probe[1].Mode == RefreshIncremental &&
			probe[0].RowsRecomputed > 0 && probe[1].RowsRecomputed > 0 && rows < bestRows {
			best, bestBase, bestRows = cand, d, rows
		}
	}
	if bestRows > n/8 {
		return Link{}, 0, fmt.Errorf("netgraph: no link with a small drift blast radius (best repairs %d/%d rows)", bestRows, n)
	}
	return best, bestBase, nil
}
