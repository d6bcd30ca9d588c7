package hierarchy

import (
	"fmt"
	"math/rand"

	"hnp/internal/cluster"
	"hnp/internal/netgraph"
	"hnp/internal/obs"
)

// RebindRows replaces the path snapshot the hierarchy measures costs
// against. Call it after the physical graph changed (new node, link cost
// update) before using AddNode or cost queries; cluster membership is
// untouched. The replacement snapshot must itself be current for the
// hierarchy's graph — rebinding to an already-stale snapshot is rejected,
// because every cost the hierarchy reports would silently reflect a
// network that no longer exists.
//
// rows scopes the re-measurement to a delta path refresh: when non-nil it
// is the set of source rows the refresh recomputed
// (netgraph.RefreshStats.Rows). Because changed distances always flag
// both endpoints' rows, a cluster none of whose members appear in rows
// has provably unchanged pairwise distances, so only clusters
// intersecting rows re-measure their diameter. A nil rows (full
// recompute, or scope unknown) re-measures every cluster.
//
// The representative table is not rebuilt in either case: it depends only
// on cluster membership and coordinators, which a rebind never changes.
func (h *Hierarchy) RebindRows(paths *netgraph.Paths, rows []netgraph.NodeID) error {
	sp := obs.StartSpan(h.obsReg, "hierarchy.rebind")
	defer sp.End()
	if paths.StaleFor(h.g) {
		return fmt.Errorf("hierarchy: Rebind with stale path snapshot (snapshot version %d, graph version %d)",
			paths.Version(), h.g.Version())
	}
	h.paths = paths
	n := h.g.NumNodes()
	if len(h.rep) != len(h.lvls) || len(h.rep) > 0 && len(h.rep[0]) != n {
		// The graph gained nodes since the table was built (membership
		// mutations rebuild it themselves): re-materialize so Rep keeps
		// panicking with its poison value instead of indexing out of range.
		h.rebuildRep()
	}
	reaudited := 0
	if rows == nil {
		for _, lvl := range h.lvls {
			for _, c := range lvl.Clusters {
				c.Diameter = paths.MaxPairwise(c.Members)
				reaudited++
			}
		}
		h.obsRebindFull.Inc()
	} else {
		if cap(h.rowMark) < n {
			h.rowMark = make([]bool, n)
		}
		mark := h.rowMark[:n]
		for _, r := range rows {
			mark[r] = true
		}
		for _, lvl := range h.lvls {
			for _, c := range lvl.Clusters {
				for _, m := range c.Members {
					if mark[m] {
						c.Diameter = paths.MaxPairwise(c.Members)
						reaudited++
						break
					}
				}
			}
		}
		for _, r := range rows {
			mark[r] = false
		}
		h.obsRebindDelta.Inc()
	}
	h.obsRebindAudited.Add(int64(reaudited))
	if tr := h.obsReg.Tracer(); tr.On() {
		tr.Emit(obs.Event{Kind: obs.KindHierarchyChanged, Query: obs.NoID, Node: obs.NoID,
			Value: float64(reaudited), Detail: "rebind"})
	}
	return nil
}

// AddNode inserts a new physical node into the hierarchy following the
// paper's join protocol: the request descends from the top, at each level
// moving to the member closest to the new node, until the node lands in a
// bottom-level cluster. Overfull clusters split in two; the new
// coordinator is promoted, which can cascade splits up the hierarchy and,
// at the very top, grow a new level.
//
// The node must already exist in the graph and be covered by the current
// path snapshot (use Rebind after extending the graph).
func (h *Hierarchy) AddNode(v netgraph.NodeID) error {
	sp := obs.StartSpan(h.obsReg, "hierarchy.add_node")
	defer sp.End()
	if int(v) >= h.g.NumNodes() {
		return fmt.Errorf("hierarchy: node %d not in graph", v)
	}
	if h.paths.StaleFor(h.g) {
		return fmt.Errorf("hierarchy: AddNode(%d) against a stale path snapshot; Rebind with a fresh one first", v)
	}
	if h.Contains(v) {
		return fmt.Errorf("hierarchy: node %d already present", v)
	}
	// Descend from the top to the closest bottom-level cluster.
	c := h.Top()
	for c.Level > 1 {
		best, bestD := c.Members[0], h.paths.Dist(v, c.Members[0])
		for _, m := range c.Members[1:] {
			if d := h.paths.Dist(v, m); d < bestD {
				best, bestD = m, d
			}
		}
		c = h.ChildCluster(best, c.Level)
	}
	h.insert(c, v)
	h.invalidate()
	h.rebuildRep()
	if tr := h.obsReg.Tracer(); tr.On() {
		tr.Emit(obs.Event{Kind: obs.KindHierarchyChanged, Query: obs.NoID, Node: int(v), Detail: "add_node"})
	}
	return nil
}

// insert places node v into cluster c (bottom-up recursion target) and
// splits c if it exceeds max_cs.
func (h *Hierarchy) insert(c *Cluster, v netgraph.NodeID) {
	lvl := h.lvls[c.Level-1]
	c.Members = append(c.Members, v)
	lvl.byNode[v] = c
	c.Diameter = h.paths.MaxPairwise(c.Members)
	if len(c.Members) <= h.maxCS {
		return
	}
	h.split(c)
}

// split divides an overfull cluster into two. The half containing the old
// coordinator keeps it; the other half elects a fresh coordinator, which
// is promoted into the parent cluster (possibly cascading).
func (h *Hierarchy) split(c *Cluster) {
	lvl := h.lvls[c.Level-1]
	members := c.Members
	dist := func(i, j int) float64 { return h.paths.Dist(members[i], members[j]) }
	// Splits are rare and local; a fixed seed keeps the structure
	// reproducible without threading the construction rng through mutations.
	res, err := cluster.KMedoids(len(members), 2, h.maxCS, dist, rand.New(rand.NewSource(1)))
	if err != nil {
		// Unreachable: 2*maxCS >= maxCS+1 for maxCS >= 1.
		panic(err)
	}
	groups := res.Clusters()
	// Decide which group keeps the old cluster identity (the one holding
	// the old coordinator keeps its coordinator so upper levels stay valid).
	keepIdx := 0
	for gi, items := range groups {
		for _, it := range items {
			if members[it] == c.Coordinator {
				keepIdx = gi
			}
		}
	}
	toNodes := func(items []int) []netgraph.NodeID {
		out := make([]netgraph.NodeID, len(items))
		for i, it := range items {
			out[i] = members[it]
		}
		return out
	}
	keep := toNodes(groups[keepIdx])
	moved := toNodes(groups[1-keepIdx])
	if len(moved) == 0 {
		// Degenerate split; nothing to do (can only happen with duplicate
		// coordinates, where the cluster cannot actually shrink).
		c.Members = keep
		return
	}
	c.Members = keep
	c.Diameter = h.paths.MaxPairwise(keep)

	nc := &Cluster{
		Level:       c.Level,
		Members:     moved,
		Coordinator: h.paths.Medoid(moved),
		Diameter:    h.paths.MaxPairwise(moved),
	}
	lvl.Clusters = append(lvl.Clusters, nc)
	for _, m := range moved {
		lvl.byNode[m] = nc
	}

	// Promote the new coordinator one level up.
	if c.Level == len(h.lvls) {
		// Splitting the top cluster: grow a new top level.
		top := &Level{Index: c.Level + 1, byNode: map[netgraph.NodeID]*Cluster{}}
		members := []netgraph.NodeID{c.Coordinator, nc.Coordinator}
		tc := &Cluster{
			Level:       c.Level + 1,
			Members:     members,
			Coordinator: h.paths.Medoid(members),
			Diameter:    h.paths.MaxPairwise(members),
		}
		top.Clusters = []*Cluster{tc}
		for _, m := range members {
			top.byNode[m] = tc
		}
		h.lvls = append(h.lvls, top)
		return
	}
	parent := h.lvls[c.Level].byNode[c.Coordinator]
	h.insert(parent, nc.Coordinator)
}

// RemoveNode removes a physical node (e.g. on failure or departure). If
// the node coordinated clusters, the affected clusters elect new medoids
// and the replacement propagates up the hierarchy, mirroring the paper's
// coordinator back-up promotion. Empty clusters dissolve.
func (h *Hierarchy) RemoveNode(v netgraph.NodeID) error {
	sp := obs.StartSpan(h.obsReg, "hierarchy.remove_node")
	defer sp.End()
	c := h.lvls[0].byNode[v]
	if c == nil {
		return fmt.Errorf("hierarchy: node %d not present", v)
	}
	h.removeFrom(c, v)
	h.invalidate()
	h.rebuildRep()
	if tr := h.obsReg.Tracer(); tr.On() {
		tr.Emit(obs.Event{Kind: obs.KindHierarchyChanged, Query: obs.NoID, Node: int(v), Detail: "remove_node"})
	}
	return nil
}

func (h *Hierarchy) removeFrom(c *Cluster, v netgraph.NodeID) {
	lvl := h.lvls[c.Level-1]
	c.Members = removeID(c.Members, v)
	delete(lvl.byNode, v)

	if len(c.Members) == 0 {
		h.dropCluster(c)
		// The cluster's coordinator (== v, the last member) may still be
		// referenced above; remove it there too.
		if c.Level < len(h.lvls) {
			if up := h.lvls[c.Level].byNode[v]; up != nil {
				h.removeFrom(up, v)
			}
		}
		h.shrinkTop()
		return
	}

	c.Diameter = h.paths.MaxPairwise(c.Members)
	if c.Coordinator != v {
		return
	}
	// Elect a replacement coordinator and substitute it wherever v appeared
	// higher up.
	newCoord := h.paths.Medoid(c.Members)
	c.Coordinator = newCoord
	for l := c.Level + 1; l <= len(h.lvls); l++ {
		up := h.lvls[l-1].byNode[v]
		if up == nil {
			break
		}
		for i, m := range up.Members {
			if m == v {
				up.Members[i] = newCoord
			}
		}
		delete(h.lvls[l-1].byNode, v)
		h.lvls[l-1].byNode[newCoord] = up
		up.Diameter = h.paths.MaxPairwise(up.Members)
		if up.Coordinator != v {
			break
		}
		up.Coordinator = newCoord
	}
}

func (h *Hierarchy) dropCluster(c *Cluster) {
	lvl := h.lvls[c.Level-1]
	for i, cc := range lvl.Clusters {
		if cc == c {
			lvl.Clusters = append(lvl.Clusters[:i], lvl.Clusters[i+1:]...)
			return
		}
	}
}

// shrinkTop trims now-redundant top levels (a top level whose single
// cluster has a single member adds no information).
func (h *Hierarchy) shrinkTop() {
	for len(h.lvls) > 1 {
		top := h.lvls[len(h.lvls)-1]
		if len(top.Clusters) == 1 && len(top.Clusters[0].Members) <= 1 {
			h.lvls = h.lvls[:len(h.lvls)-1]
			continue
		}
		if len(top.Clusters) == 0 {
			h.lvls = h.lvls[:len(h.lvls)-1]
			continue
		}
		break
	}
}

func removeID(s []netgraph.NodeID, v netgraph.NodeID) []netgraph.NodeID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
